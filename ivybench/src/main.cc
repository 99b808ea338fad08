// ivybench: the Ivy benchmark's entry point.
//
//   ivybench --workload cold_link|edit_serve|kernel_vm --seed N --seconds S
//            --trace 0|1 [--workdir DIR]
//   ivybench --self-check          # every correctness gate must trip
//   ivybench --digest --workload W --seed N   # inputs digest only
//
// With --trace 0 the result line carries the end-to-end metrics, measured
// with ivytrace off; with --trace 1 it carries the per-layer metrics of a
// traced run. The last line of stdout is always the JSON result; a failed
// correctness gate makes the run exit 1 and post no metrics.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "common.h"
#include "workloads.h"

namespace ivybench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Keep in step with BENCHMARK.json (test_ivybench.py checks it).
const MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"primary_p50_ref_ms", "ms"},
    {"secondary_p50_ref_ms", "ms"},
    {"peak_rss_mb", "MB"},
    {"artifact_bytes", "bytes"},
};

const MetricSpec kPerLayer[] = {
    {"mc.lex_ms", "ms"},
    {"mc.parse_ms", "ms"},
    {"mc.sema_ms", "ms"},
    {"mc.tokens", "count"},
    {"ir.lower_ms", "ms"},
    {"ir.instrs", "count"},
    {"analysis.fingerprint_ms", "ms"},
    {"analysis.pointsto_ms", "ms"},
    {"analysis.pointsto_propagations", "count"},
    {"analysis.callgraph_ms", "ms"},
    {"blockstop.ms", "ms"},
    {"stackcheck.ms", "ms"},
    {"errcheck.ms", "ms"},
    {"locksafe.ms", "ms"},
    {"blockstop.mayblock_evals", "count"},
    {"session.link_rounds", "count"},
    {"session.module_analyses", "count"},
    {"session.useful_analysis_frac", "frac"},
    {"session.link_round_ms", "ms"},
    {"session.link_unattributed_ms", "ms"},
    {"annodb.render_ms", "ms"},
    {"store.encode_ms", "ms"},
    {"store.save_ms", "ms"},
    {"store.decode_ms", "ms"},
    {"store.load_ms", "ms"},
    {"server.epoch_build_ms", "ms"},
    {"server.publish_p50_ms", "ms"},
    {"server.edit_queue_peak", "count"},
    {"server.relinks_per_edit", "count"},
    {"wire.reply_bytes", "bytes"},
    {"wire.decode_ms", "ms"},
    {"workqueue.steals", "count"},
    {"workqueue.idle_waits", "count"},
    {"bc.compile_ms", "ms"},
    {"bc.verify_ms", "ms"},
    {"bc.image_bytes", "bytes"},
    {"vm.boot_ms", "ms"},
    {"vm.steps", "count"},
    {"vm.ns_per_step", "ns"},
    {"layers.coverage_frac", "frac"},
    {"trace.overhead_frac", "frac"},
    {"query.gen_late_ms", "ms"},
};

void Usage() {
  std::fprintf(stderr,
               "usage: ivybench --workload cold_link|edit_serve|kernel_vm --seed N\n"
               "                --seconds S --trace 0|1 [--workdir DIR]\n"
               "       ivybench --self-check\n"
               "       ivybench --digest --workload W --seed N\n"
               "       ivybench --list-metrics\n");
}

// Orders the report's metrics by the published list for this mode. A
// layer a workload does not exercise reads 0 and is named in a note; a
// metric outside the list moves to the notes; a missing end-to-end metric
// is a benchmark bug and fails the run.
void Conform(bool trace, Report* rep) {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> out;
  std::set<std::string> listed;
  std::string idle;
  auto take = [&](const MetricSpec* begin, const MetricSpec* end) {
    for (const MetricSpec* m = begin; m != end; ++m) {
      listed.insert(m->name);
      bool found = false;
      for (const auto& have : rep->metrics) {
        if (have.first == m->name) {
          out.push_back(have);
          found = true;
        }
      }
      if (found) continue;
      if (!trace) {
        rep->Fail(std::string("end-to-end metric not measured: ") + m->name);
      }
      out.push_back({m->name, {0.0, m->unit}});
      idle += idle.empty() ? m->name : std::string(", ") + m->name;
    }
  };
  if (trace) {
    take(std::begin(kPerLayer), std::end(kPerLayer));
  } else {
    take(std::begin(kEndToEnd), std::end(kEndToEnd));
  }
  for (const auto& have : rep->metrics) {
    if (listed.count(have.first) == 0) {
      rep->Note(have.first + " = " + Fmt(have.second.first, have.second.second.c_str()));
    }
  }
  if (!idle.empty()) {
    rep->Note("layers not exercised by this workload (0): " + idle);
  }
  rep->metrics = std::move(out);
}

std::string InputsDigest(const std::string& workload, uint64_t seed) {
  if (workload == "cold_link") {
    Digest d;
    AddCorpusDigest(LinkedCorpus(seed), &d);
    return d.Hex();
  }
  if (workload == "edit_serve") return EditServeDigest(seed);
  if (workload == "kernel_vm") return KernelVmDigest(seed);
  return std::string();
}

bool ParseArgs(int argc, char** argv, Options* opt, std::string* mode) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "ivybench: %s needs a value\n", flag);
        return nullptr;
      }
      return argv[++i];
    };
    if (a == "--workload") {
      const char* v = value("--workload");
      if (v == nullptr) return false;
      opt->workload = v;
    } else if (a == "--seed") {
      const char* v = value("--seed");
      if (v == nullptr) return false;
      char* end = nullptr;
      opt->seed = std::strtoull(v, &end, 10);
      if (*v == '\0' || *end != '\0') return false;
    } else if (a == "--seconds") {
      const char* v = value("--seconds");
      if (v == nullptr) return false;
      char* end = nullptr;
      opt->seconds = std::strtod(v, &end);
      if (*v == '\0' || *end != '\0' || !(opt->seconds > 0)) return false;
    } else if (a == "--trace") {
      const char* v = value("--trace");
      if (v == nullptr) return false;
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) return false;
      opt->trace = v[0] == '1';
    } else if (a == "--workdir") {
      const char* v = value("--workdir");
      if (v == nullptr) return false;
      opt->workdir = v;
    } else if (a == "--self-check" || a == "--digest" || a == "--list-metrics") {
      *mode = a;
    } else {
      std::fprintf(stderr, "ivybench: unknown argument '%s'\n", a.c_str());
      return false;
    }
  }
  return true;
}

}  // namespace
}  // namespace ivybench

int main(int argc, char** argv) {
  using namespace ivybench;
  Options opt;
  std::string mode;
  if (!ParseArgs(argc, argv, &opt, &mode)) {
    Usage();
    return 2;
  }
  if (mode == "--list-metrics") {
    for (const MetricSpec& m : kEndToEnd) std::printf("end_to_end %s %s\n", m.name, m.unit);
    for (const MetricSpec& m : kPerLayer) std::printf("per_layer %s %s\n", m.name, m.unit);
    return 0;
  }
  if (mode == "--self-check") {
    return RunSelfCheck() ? 0 : 1;
  }
  if (mode == "--digest") {
    std::string digest = InputsDigest(opt.workload, opt.seed);
    if (digest.empty()) {
      Usage();
      return 2;
    }
    std::printf("%s\n", digest.c_str());
    return 0;
  }

  Report rep;
  if (opt.workload == "cold_link") {
    RunColdLink(opt, &rep);
  } else if (opt.workload == "edit_serve") {
    RunEditServe(opt, &rep);
  } else if (opt.workload == "kernel_vm") {
    RunKernelVm(opt, &rep);
  } else {
    Usage();
    return 2;
  }
  if (rep.correct) {
    Conform(opt.trace, &rep);
  }
  rep.Print(opt);
  return rep.correct ? 0 : 1;
}
