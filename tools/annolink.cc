// annolink: the multi-process distributed relink coordinator (and, with
// --worker, the worker half it spawns). Shards each round's dirty modules
// across N worker processes that exchange summary deltas through the shared
// store file (src/store/store.h) — the paper's cluster-scale analysis made
// concrete as processes around one advisory-locked file.
//
//   annolink --synth 6:48 --store /tmp/corpus.store              # 3 workers
//   annolink --synth 6:48 --store /tmp/corpus.store --workers 5
//   annolink --synth 6:48 --store /tmp/corpus.store --single     # reference
//
// Byte-identity contract: stdout (canonical summary rows, then stamped
// findings) is identical across --single and any --workers count — CI diffs
// them. A rerun over an existing store warm-starts (stderr reports
// module_analyses=0 when nothing changed); a rerun over a store torn by a
// killed worker re-derives the same bytes from the unconverged table.
//
// Worker mode (spawned by the coordinator, not for direct use):
//   annolink --worker --store <path> --modules a,b,c
//
// --test-worker-fail <module> (CI only): the worker assigned that module
// exits 1 before analyzing — a deterministic mid-round death. The flag
// travels to workers via the ANNOLINK_TEST_FAIL_MODULE environment variable.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/store/store.h"
#include "src/support/numbers.h"
#include "src/support/trace.h"
#include "src/tool/session.h"
#include "tools/synth_common.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: annolink --synth M:N[:seed] --store <path>\n"
               "                [--workers <n>] [--single] [--test-worker-fail <module>]\n"
               "                [--trace-out <file>] [--metrics]\n"
               "       annolink --worker --store <path> --modules a,b,c\n");
}

std::vector<std::string> SplitCommas(const std::string& s) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= s.size()) {
    size_t comma = s.find(',', start);
    if (comma == std::string::npos) {
      if (start < s.size()) {
        out.push_back(s.substr(start));
      }
      break;
    }
    if (comma > start) {
      out.push_back(s.substr(start, comma - start));
    }
    start = comma + 1;
  }
  return out;
}

int RunWorker(const std::string& store, const std::string& modules_csv) {
  std::vector<std::string> modules = SplitCommas(modules_csv);
  if (store.empty() || modules.empty()) {
    Usage();
    return 1;
  }
  if (const char* fail = std::getenv("ANNOLINK_TEST_FAIL_MODULE")) {
    for (const std::string& m : modules) {
      if (m == fail) {
        std::fprintf(stderr, "annolink[worker]: failing on '%s' (test hook)\n", fail);
        return 1;
      }
    }
  }
  std::string err;
  if (!ivy::AnalysisSession::RunStoreWorker(ivy::SynthServePipeline().Build(), store,
                                            modules, &err)) {
    std::fprintf(stderr, "annolink[worker]: %s\n", err.c_str());
    return 1;
  }
  return 0;
}

// One line per converged artifact, canonical forms — identical bytes across
// --single and every worker count, which is what CI diffs.
void PrintResult(const ivy::AnalysisSession& session, const ivy::SessionResult& result) {
  for (const auto& [key, row] : session.link_table().summaries()) {
    std::printf("%s\n", row.Canonical().c_str());
  }
  for (const ivy::Finding& f : result.findings) {
    std::string line = f.module.empty() ? std::string() : "{" + f.module + "} ";
    line += f.ToString();
    std::printf("%s\n", line.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string synth_spec;
  std::string store;
  std::string modules_csv;
  std::string fail_module;
  std::string trace_out;
  int workers = 3;
  bool single = false;
  bool worker_mode = false;
  bool metrics = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&i, argc, argv](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "annolink: %s needs a value\n", flag);
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--synth") {
      const char* v = next("--synth");
      if (v == nullptr) return 1;
      synth_spec = v;
    } else if (arg == "--store") {
      const char* v = next("--store");
      if (v == nullptr) return 1;
      store = v;
    } else if (arg == "--modules") {
      const char* v = next("--modules");
      if (v == nullptr) return 1;
      modules_csv = v;
    } else if (arg == "--workers") {
      const char* v = next("--workers");
      if (v == nullptr) return 1;
      int64_t n = 0;
      if (!ivy::ParseInt64Strict(v, 1, 256, &n)) {
        std::fprintf(stderr, "annolink: --workers wants an integer in [1, 256], got '%s'\n", v);
        Usage();
        return 1;
      }
      workers = static_cast<int>(n);
    } else if (arg == "--single") {
      single = true;
    } else if (arg == "--worker") {
      worker_mode = true;
    } else if (arg == "--test-worker-fail") {
      const char* v = next("--test-worker-fail");
      if (v == nullptr) return 1;
      fail_module = v;
    } else if (arg == "--trace-out") {
      const char* v = next("--trace-out");
      if (v == nullptr) return 1;
      trace_out = v;
    } else if (arg == "--metrics") {
      metrics = true;
    } else if (arg == "--help" || arg == "-h") {
      Usage();
      return 0;
    } else {
      std::fprintf(stderr, "annolink: unknown argument '%s'\n", arg.c_str());
      Usage();
      return 1;
    }
  }

  if (worker_mode) {
    return RunWorker(store, modules_csv);
  }
  if (synth_spec.empty() || store.empty()) {
    Usage();
    return 1;
  }
  // Observability never touches stdout here: stdout is the byte-identity
  // surface CI diffs across worker counts. Traces go to a file, metrics to
  // stderr.
  if (!trace_out.empty() || metrics) {
    ivy::trace::SetEnabled(true);
  }

  ivy::LinkedCorpusOptions opt;
  if (!ivy::ParseSynthSpec(synth_spec, &opt)) {
    std::fprintf(stderr, "annolink: bad --synth spec '%s' (want M:N[:seed])\n",
                 synth_spec.c_str());
    return 1;
  }
  if (!fail_module.empty()) {
    ::setenv("ANNOLINK_TEST_FAIL_MODULE", fail_module.c_str(), 1);
  }

  ivy::AnalysisSession session = ivy::SynthServePipeline()
                                     .ForEachModule(ivy::GenerateLinkedCorpus(opt))
                                     .BuildSession();
  // Warm start: adopt the previous run's facts when the store matches this
  // corpus. AddModule above and LoadStore here reconcile by source digest,
  // so an unchanged corpus relinks in one idle round (module_analyses=0).
  std::string lerr;
  if (ivy::StoreFile probe; ivy::ReadStoreFile(store, &probe, &lerr)) {
    if (session.LoadStore(store, &lerr)) {
      std::fprintf(stderr, "annolink: warm start from %s\n", store.c_str());
    } else {
      std::fprintf(stderr, "annolink: cold start (%s)\n", lerr.c_str());
    }
  }

  ivy::SessionResult result;
  if (single) {
    result = session.RunLinked();
    std::string serr;
    if (!session.SaveStore(store, &serr)) {
      std::fprintf(stderr, "annolink: cannot write store: %s\n", serr.c_str());
      return 1;
    }
  } else {
    ivy::DistributedLinkOptions dopts;
    dopts.store_path = store;
    dopts.workers = workers;
    dopts.worker_argv0 = argv[0];
    result = session.RunLinkedDistributed(dopts);
  }

  const ivy::LinkStats& ls = session.link_stats();
  std::fprintf(stderr,
               "annolink: rounds=%d module_analyses=%d memo_hits=%d findings_rebuilds=%d "
               "summary_rows=%d cross_edges=%d converged=%d\n",
               ls.rounds, ls.module_analyses, ls.memo_hits, ls.findings_rebuilds,
               ls.summary_rows, ls.cross_edges, ls.converged ? 1 : 0);
  PrintResult(session, result);
  if (!trace_out.empty()) {
    std::string terr;
    if (!ivy::trace::TraceSink::WriteJson(trace_out, &terr)) {
      std::fprintf(stderr, "annolink: cannot write trace to '%s': %s\n",
                   trace_out.c_str(), terr.c_str());
      return 1;
    }
    std::fprintf(stderr, "annolink: trace written to %s\n", trace_out.c_str());
  }
  if (metrics) {
    std::fprintf(stderr, "%s", ivy::trace::RenderMetrics().c_str());
  }
  if (result.cancelled || !ls.converged || result.compile_failures > 0) {
    return 1;
  }
  return 0;
}
