// cold_link: the CI first run and rerun. annolink --single's recipe in
// process over the 8x400 linked corpus: RunLinked to convergence, SaveStore,
// render the canonical rows and findings; then a fresh session over the same
// sources does LoadStore + RunLinked and must reproduce the rendering byte
// for byte with zero module analyses.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "common.h"
#include "layers.h"
#include "src/store/store.h"
#include "src/tool/session.h"
#include "tests/synth_corpus.h"
#include "workloads.h"

namespace ivybench {
namespace {

// annolink's stdout: canonical summary rows, then module-stamped findings.
std::vector<std::string> Render(const ivy::AnalysisSession& session,
                                const ivy::SessionResult& result) {
  std::vector<std::string> lines;
  for (const auto& [key, row] : session.link_table().summaries()) {
    lines.push_back(row.Canonical());
  }
  for (const ivy::Finding& f : result.findings) {
    lines.push_back((f.module.empty() ? std::string() : "{" + f.module + "} ") + f.ToString());
  }
  return lines;
}

int64_t FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  return in ? static_cast<int64_t>(in.tellg()) : -1;
}

// Modules with any summary row or finding: from an empty table, a cold
// link's useful analyses are the ones that produced these.
size_t ModulesWithResults(const ivy::AnalysisSession& session, const ivy::SessionResult& result) {
  std::set<std::string> modules;
  for (const auto& [key, row] : session.link_table().summaries()) {
    modules.insert(row.module);
  }
  for (const ivy::Finding& f : result.findings) {
    modules.insert(f.module);
  }
  return modules.size();
}

struct Iteration {
  double cold_ms = 0;
  double restart_ms = 0;
  // Traced iterations only.
  double save_ms = 0;
  double render_ms = 0;
  double load_ms = 0;
  LinkLayers link;
  int64_t propagations = 0;
  int64_t mayblock_evals = 0;
  size_t useful = 0;
};

}  // namespace

std::vector<std::string> LinkedFindings(const ivy::AnalysisSession& session,
                                        const ivy::SessionResult& result) {
  std::vector<std::string> out;
  for (const ivy::ModuleRunResult& mr : result.modules) {
    const ivy::Compilation* comp = session.CompilationFor(mr.module);
    for (const ivy::Finding& f : mr.result.findings) {
      out.push_back(f.ToString(comp != nullptr ? &comp->sm : nullptr));
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

bool MergedFindings(const std::vector<ivy::ModuleSources>& corpus,
                    std::vector<std::string>* out, std::string* err) {
  ivy::PipelineRun run =
      ivy::SynthServePipeline().Build().CompileAndRun(ivy::MergedLinkedSources(corpus));
  if (run.comp == nullptr || !run.comp->ok) {
    *err = "merged-source reference failed to compile";
    return false;
  }
  out->clear();
  for (const ivy::Finding& f : run.result.findings) {
    out->push_back(f.ToString(&run.comp->sm));
  }
  std::sort(out->begin(), out->end());
  return true;
}

void RunColdLink(const Options& opt, Report* rep) {
  // Set-up: corpus generation and session construction. One takes a few
  // milliseconds and a shared machine's speed can shift over seconds, so
  // set-ups are timed in batches of kSetupBatch, one batch before every
  // measured iteration, and the median batch's time per set-up is reported.
  constexpr int kSetupBatch = 20;
  std::vector<double> setup_s;
  std::vector<ivy::ModuleSources> corpus;
  auto time_setups = [&]() {
    double t0 = NowS();
    for (int i = 0; i < kSetupBatch; ++i) {
      corpus = LinkedCorpus(opt.seed);
      ivy::PipelineBuilder b = TimedPipeline();
      b.ForEachModule(corpus);
      ivy::AnalysisSession session = b.BuildSession();
    }
    setup_s.push_back((NowS() - t0) / kSetupBatch);
  };
  time_setups();
  Digest digest;
  AddCorpusDigest(corpus, &digest);
  rep->digest = digest.Hex();

  // Reference: the merged-source single program (outside the timed region).
  std::vector<std::string> merged;
  {
    std::string err;
    ++rep->attempted;
    if (!MergedFindings(corpus, &merged, &err)) {
      rep->Fail(err);
      return;
    }
  }

  const std::string store = opt.workdir + "/cold_link.store";
  std::vector<std::string> first_render;
  ivy::LinkStats cold_stats;
  int64_t store_bytes = 0;
  size_t findings = 0;

  auto iterate = [&](bool traced, Iteration* it) -> bool {
    if (traced) BeginTraced();
    std::vector<std::string> cold_render;
    {
      double t0 = NowS();
      ivy::PipelineBuilder b = TimedPipeline();
      b.ForEachModule(corpus);
      ivy::AnalysisSession session = b.BuildSession();
      ivy::SessionResult result = session.RunLinked();
      double t1 = NowS();
      std::string err;
      bool saved = session.SaveStore(store, &err);
      double t2 = NowS();
      cold_render = Render(session, result);
      it->cold_ms = MsSince(t0);
      it->save_ms = (t2 - t1) * 1000;
      it->render_ms = MsSince(t2);
      ++rep->attempted;
      if (!saved) {
        rep->Fail("SaveStore: " + err);
        return false;
      }
      cold_stats = session.link_stats();
      if (!cold_stats.converged || result.compile_failures > 0) {
        rep->Fail("cold link did not converge cleanly");
        return false;
      }
      findings = result.findings.size();
      if (first_render.empty()) {
        // The linked fixpoint must find exactly what the merged program does.
        if (!GateEqual("cold_link findings vs merged source", LinkedFindings(session, result),
                       merged, rep)) {
          return false;
        }
        first_render = cold_render;
      } else if (!GateEqual("cold_link rerun determinism", cold_render, first_render, rep)) {
        return false;
      }
      if (traced) {
        for (const ivy::ModuleSources& m : corpus) {
          const ivy::ModuleStats ms = session.StatsFor(m.name);
          it->propagations += ms.pointsto_propagations;
          it->mayblock_evals += ms.mayblock_evals;
        }
        it->useful = ModulesWithResults(session, result);
      }
    }
    store_bytes = FileBytes(store);

    {
      double t0 = NowS();
      ivy::PipelineBuilder b = TimedPipeline();
      b.ForEachModule(corpus);
      ivy::AnalysisSession session = b.BuildSession();
      std::string err;
      double tl = NowS();
      bool loaded = session.LoadStore(store, &err);
      it->load_ms = MsSince(tl);
      ivy::SessionResult result = session.RunLinked();
      std::vector<std::string> render = Render(session, result);
      it->restart_ms = MsSince(t0);
      ++rep->attempted;
      if (!loaded) {
        rep->Fail("LoadStore: " + err);
        return false;
      }
      if (session.link_stats().module_analyses != 0) {
        rep->Fail("restart re-analyzed " + std::to_string(session.link_stats().module_analyses) +
                  " modules (want 0)");
        return false;
      }
      if (!GateEqual("restart vs cold rendering", render, cold_render, rep)) {
        return false;
      }
    }
    if (traced) {
      EndTraced();
      it->link = ReadLinkLayers();
    }
    return true;
  };

  std::vector<Iteration> plain;
  std::vector<Iteration> traced;
  Yardstick yard;
  std::vector<double> cold_ref;
  std::vector<double> restart_ref;
  const double start = NowS();
  while (plain.empty() || NowS() - start < opt.seconds) {
    if (!plain.empty()) time_setups();
    Iteration it;
    if (!iterate(false, &it)) return;
    plain.push_back(it);
    const double f = yard.Follow(it.cold_ms + it.restart_ms);
    cold_ref.push_back(it.cold_ms * f);
    restart_ref.push_back(it.restart_ms * f);
    if (opt.trace) {
      Iteration tr;
      if (!iterate(true, &tr)) return;
      traced.push_back(tr);
    }
  }

  std::vector<double> cold;
  std::vector<double> restart;
  for (const Iteration& it : plain) {
    cold.push_back(it.cold_ms);
    restart.push_back(it.restart_ms);
  }
  rep->Named("setup_s", Median(setup_s), "s",
             "(median of " + std::to_string(setup_s.size()) + " batches of " +
                 std::to_string(kSetupBatch) + " corpus generations + session builds)");
  rep->Named("cold_s", Median(cold) / 1000, "s",
             "(median of " + std::to_string(cold.size()) + " cold links)");
  rep->Named("restart_s", Median(restart) / 1000, "s",
             "(median of " + std::to_string(restart.size()) + " restarts)");
  rep->Named("store_bytes", static_cast<double>(store_bytes), "bytes");
  rep->Named("peak_rss_mb", PeakRssMb(), "MB");
  NoteHostSpeed(yard, rep);
  rep->Note("cold link: rounds = " + std::to_string(cold_stats.rounds) + ", module analyses = " +
            std::to_string(cold_stats.module_analyses) + ", summary rows = " +
            std::to_string(cold_stats.summary_rows) + ", findings = " + std::to_string(findings));

  if (!opt.trace) {
    rep->Set("setup_s", Median(setup_s), "s");
    rep->Set("primary_p50_ref_ms", Median(cold_ref), "ms");
    rep->Set("secondary_p50_ref_ms", Median(restart_ref), "ms");
    rep->Set("peak_rss_mb", PeakRssMb(), "MB");
    rep->Set("artifact_bytes", static_cast<double>(store_bytes), "bytes");
    return;
  }

  // Per-layer run: medians over the traced iterations, per iteration (one
  // cold link plus one restart).
  auto med = [&traced](auto field) {
    std::vector<double> v;
    for (const Iteration& it : traced) v.push_back(field(it));
    return Median(v);
  };
  std::vector<std::vector<ivy::SourceFile>> programs;
  for (const ivy::ModuleSources& m : corpus) programs.push_back(m.files);
  FrontendReplay replay = ReplayFrontend(programs, /*deputy=*/true);
  if (!replay.ok) {
    rep->Fail("frontend replay: " + replay.error);
    return;
  }
  SetFrontendMetrics(replay, rep);

  // Store codec on the saved file, outside any session.
  {
    std::string bytes;
    std::ifstream in(store, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
    ivy::StoreFile sf;
    std::string err;
    double t0 = NowS();
    bool ok = ivy::DecodeStore(bytes, &sf, &err);
    double t1 = NowS();
    std::string again = ivy::EncodeStore(sf);
    double t2 = NowS();
    ++rep->attempted;
    if (!ok || again != bytes) {
      rep->Fail("store codec round trip: " + (ok ? std::string("re-encoding differs") : err));
      return;
    }
    rep->Set("store.decode_ms", (t1 - t0) * 1000, "ms");
    rep->Set("store.encode_ms", (t2 - t1) * 1000, "ms");
  }
  rep->Set("store.save_ms", med([](const Iteration& i) { return i.save_ms; }), "ms");
  rep->Set("store.load_ms", med([](const Iteration& i) { return i.load_ms; }), "ms");
  rep->Set("annodb.render_ms", med([](const Iteration& i) { return i.render_ms; }), "ms");
  rep->Set("analysis.pointsto_propagations",
           med([](const Iteration& i) { return static_cast<double>(i.propagations); }), "count");
  rep->Set("blockstop.mayblock_evals",
           med([](const Iteration& i) { return static_cast<double>(i.mayblock_evals); }),
           "count");
  std::vector<LinkLayers> links;
  for (const Iteration& it : traced) links.push_back(it.link);
  const LinkLayers link = MedianLinkLayers(links);
  const double useful = med([](const Iteration& i) { return static_cast<double>(i.useful); });
  const double coverage = SetLinkMetrics(link, replay, kCorpusModules, useful, rep);
  std::vector<double> traced_cold;
  for (const Iteration& it : traced) traced_cold.push_back(it.cold_ms);
  rep->Set("trace.overhead_frac", Median(traced_cold) / Median(cold) - 1.0, "frac");
  rep->Set("layers.coverage_frac", coverage, "frac");
  WriteChromeTrace(opt.workdir + "/trace_cold_link.json");
}

}  // namespace ivybench
