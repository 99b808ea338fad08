#!/usr/bin/env python3
"""Compares two Ivy benchmark result sets, or summarizes one.

A result set is a JSON-lines file as `run.py --seeds ... --out FILE` writes
it: one line per run, {"workload", "seed", "trace", "result": {...}}.

    python3 ivybench/compare.py PARENT.jsonl CHANGE.jsonl
    python3 ivybench/compare.py --summarize RUNS.jsonl

For every workload and metric the comparison prints both sides' medians
and quartiles, the share of pairs the change won, and a verdict:

  improved        the change wins at least 9 of 10 pairs (ties count for
                  neither side) and the medians differ by more than the
                  parent's own spread (the distance between its quartiles);
  regressed       the change's median is worse than the parent's by more
                  than the metric's bound from BENCHMARK.json;
  unresolved      the parent's spread is wider than the bound, so "within
                  bound" cannot be told from noise (unless every change run
                  beats every parent run, which is improved, or every change
                  run loses to every parent run and the median is worse by
                  more than the bound, which is regressed);
  within bound    none of the above.

Pairs are formed by seed (the same inputs on both sides); a seed present on
one side only is left out of the pair count. Per-layer metrics have no
bound: they are improved, worsened or "no claim" by the pairs rule alone.
Failures are compared as failed/attempted over all runs, with their bases.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def load_spec(path=BENCHMARK_JSON):
    with open(path) as f:
        spec = json.load(f)
    metrics = {}
    for m in spec["end_to_end"]:
        metrics[m["name"]] = {"unit": m["unit"], "better": m["better"], "bound": m["bound"]}
    for m in spec["per_layer"]:
        metrics[m["name"]] = {"unit": m["unit"], "better": m["better"], "bound": None}
    return metrics


def load_runs(path):
    runs = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line:
                runs.append(json.loads(line))
    return runs


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def by_workload_metric(runs):
    """{(workload, metric): {seed: value}} plus per-workload failure counts."""
    table = {}
    failures = {}
    for r in runs:
        w = r["workload"]
        res = r.get("result") or {}
        att, fail = failures.get(w, (0, 0))
        attempted = res.get("attempted", 0) or 1
        failed = res.get("failed", 0)
        if not res.get("correct", False):
            failed = max(failed, 1)
        failures[w] = (att + attempted, fail + failed)
        if not res.get("correct", False):
            continue
        for name, m in res.get("metrics", {}).items():
            table.setdefault((w, name), {})[r["seed"]] = m["value"]
    return table, failures


def verdict(parent, change, better, bound):
    """Applies the rule in the module docstring. `parent`/`change` map seed -> value."""
    pv = list(parent.values())
    cv = list(change.values())
    p_q1, p_med, p_q3 = quartiles(pv)
    _, c_med, _ = quartiles(cv)
    sign = 1 if better == "higher" else -1

    def gain(c, p):
        return sign * (c - p)

    wins = losses = 0
    for seed in set(parent) & set(change):
        g = gain(change[seed], parent[seed])
        wins += g > 0
        losses += g < 0
    pairs = len(set(parent) & set(change))
    won = wins / pairs if pairs else 0.0
    spread = p_q3 - p_q1
    all_better = all(gain(c, p) > 0 for c in cv for p in pv)
    all_worse = all(gain(c, p) < 0 for c in cv for p in pv)
    worse_by = -gain(c_med, p_med) / abs(p_med) if p_med else 0.0
    if won >= 0.9 and abs(c_med - p_med) > spread and gain(c_med, p_med) > 0:
        result = "improved"
    elif bound is None:
        lost = losses / pairs if pairs else 0.0
        result = "worsened" if lost >= 0.9 and abs(c_med - p_med) > spread else "no claim"
    elif p_med and spread / abs(p_med) > bound:
        if all_better:
            result = "improved"
        elif all_worse and worse_by > bound:
            result = "regressed"
        else:
            result = "unresolved"
    elif worse_by > bound:
        result = "regressed"
    else:
        result = "within bound"
    return {"won": won, "pairs": pairs, "wins": wins, "losses": losses,
            "worse_by": worse_by, "spread_frac": spread / abs(p_med) if p_med else 0.0,
            "verdict": result}


def fmt(v):
    return "%.6g" % v


def compare(parent_runs, change_runs, spec, out=sys.stdout):
    parent, p_fail = by_workload_metric(parent_runs)
    change, c_fail = by_workload_metric(change_runs)
    verdicts = {}
    workloads = sorted({w for w, _ in parent} | {w for w, _ in change} | set(p_fail))
    for w in workloads:
        print("== %s" % w, file=out)
        pa, pf = p_fail.get(w, (0, 0))
        ca, cf = c_fail.get(w, (0, 0))
        fail_verdict = "regressed" if cf / max(ca, 1) > pf / max(pa, 1) else "within bound"
        print("  failed_frac  parent %s (%d of %d)  change %s (%d of %d)  -> %s"
              % (fmt(pf / max(pa, 1)), pf, pa, fmt(cf / max(ca, 1)), cf, ca, fail_verdict),
              file=out)
        verdicts[(w, "failed_frac")] = fail_verdict
        names = sorted({m for (ww, m) in parent if ww == w} & {m for (ww, m) in change if ww == w},
                       key=lambda n: list(spec).index(n) if n in spec else len(spec))
        for name in names:
            meta = spec.get(name, {"unit": "", "better": "lower", "bound": None})
            pv, cv = parent[(w, name)], change[(w, name)]
            p_q1, p_med, p_q3 = quartiles(list(pv.values()))
            c_q1, c_med, c_q3 = quartiles(list(cv.values()))
            v = verdict(pv, cv, meta["better"], meta["bound"])
            verdicts[(w, name)] = v["verdict"]
            base = ("%+.1f%% of base %s %s" % (100 * (c_med - p_med) / abs(p_med), fmt(p_med),
                                                meta["unit"]) if p_med else "base 0")
            bound = "bound %g" % meta["bound"] if meta["bound"] is not None else "no bound"
            print("  %-32s parent %s [%s, %s]  change %s [%s, %s] %s  (%s; won %d of %d pairs; "
                  "parent spread %.1f%% of its median; %s)  -> %s"
                  % (name, fmt(p_med), fmt(p_q1), fmt(p_q3), fmt(c_med), fmt(c_q1), fmt(c_q3),
                     meta["unit"], base, v["wins"], v["pairs"], 100 * v["spread_frac"], bound,
                     v["verdict"]), file=out)
    return verdicts


def summarize(runs, spec, out=sys.stdout):
    """Median and quartiles per workload and metric, as a JSON object."""
    table, failures = by_workload_metric(runs)
    summary = {}
    for (w, name), values in sorted(table.items()):
        q1, med, q3 = quartiles(list(values.values()))
        summary.setdefault(w, {})[name] = {
            "median": med, "q1": q1, "q3": q3, "runs": len(values),
            "spread_frac": (q3 - q1) / abs(med) if med else 0.0,
            "unit": spec.get(name, {}).get("unit", "")}
    for w, (att, fail) in failures.items():
        summary.setdefault(w, {})["failed_frac"] = {"value": fail / max(att, 1),
                                                    "failed": fail, "attempted": att}
    json.dump(summary, out, indent=2, sort_keys=True)
    out.write("\n")
    return summary


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("files", nargs="+", help="PARENT CHANGE, or one file with --summarize")
    ap.add_argument("--summarize", action="store_true")
    ap.add_argument("--spec", default=BENCHMARK_JSON, help="BENCHMARK.json with the bounds")
    args = ap.parse_args()
    spec = load_spec(args.spec)
    if args.summarize:
        runs = []
        for path in args.files:
            runs.extend(load_runs(path))
        summarize(runs, spec)
        return 0
    if len(args.files) != 2:
        ap.error("give PARENT and CHANGE result sets")
    verdicts = compare(load_runs(args.files[0]), load_runs(args.files[1]), spec)
    return 1 if "regressed" in verdicts.values() else 0


if __name__ == "__main__":
    sys.exit(main())
