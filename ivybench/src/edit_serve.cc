// edit_serve: the developer loop. An in-process AnnodServer serves the 8x400
// linked corpus over loopback TCP. One closed-loop client sends a seeded
// sequence of single-function ReplaceFunction edits, each followed by Sync
// and a findings query for the edited module; a second connection sends an
// open-loop stream of findings and summaries queries at a fixed rate while
// those relinks are in flight.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "layers.h"
#include "src/server/client.h"
#include "src/server/epoch.h"
#include "src/server/server.h"
#include "tests/synth_corpus.h"
#include "workloads.h"

namespace ivybench {
namespace {

constexpr const char* kCorpus = "bench";
// The open-loop query rate. It is held well below what one connection
// can serve (the run reports the offered load: rate x mean service time),
// so a query waits on the relinks in flight, not on the query before it.
constexpr double kQueryRatePerS = 50;

// The seeded edit sequence. Even edits change an exported fact: the target
// becomes a leaf that blocks (msleep) or does not (udelay), the opposite of
// what it was. Odd edits are fact-neutral: only the value stored into the
// frame padding changes, so the frame size and every summary row stay put,
// but the function's fingerprint does not. Deterministic in (seed, corpus).
class EditPlanner {
 public:
  EditPlanner(uint64_t seed, const std::vector<ivy::ModuleSources>& corpus)
      : rng_(seed ^ 0xed175e57ULL) {
    for (const ivy::ModuleSources& m : corpus) {
      texts_[m.name] = m.files.front().text;
    }
  }

  Edit Next() {
    Edit e;
    int m = static_cast<int>(rng_.Below(kCorpusModules));
    if (m == last_module_) m = (m + 1) % kCorpusModules;
    last_module_ = m;
    const int fn = static_cast<int>(rng_.Below(kCorpusFunctions));
    e.module = ivy::LinkedModuleName(m);
    e.function = ivy::SynthFuncName(ivy::LinkedModulePrefix(m), fn);
    e.fact_change = count_ % 2 == 0;
    const std::string key = e.module + "/" + e.function;
    auto it = current_.find(key);
    std::string cur = it != current_.end() ? it->second : OriginalDefinition(e.module, e.function);
    if (e.fact_change) {
      const bool blocking = cur.find("msleep(") != std::string::npos &&
                            cur.find("udelay(") == std::string::npos && IsLeaf(cur);
      e.definition = "void " + e.function + "(int n) {\n  int pad[8]; pad[0] = n;\n  " +
                     (blocking ? "udelay(1)" : "msleep(n)") + ";\n}\n";
    } else {
      // Rewrite the store into the padding: "pad[0] = n" -> "pad[0] = n + k".
      size_t at = cur.find("pad[0] = n");
      size_t semi = at == std::string::npos ? at : cur.find(';', at);
      if (semi == std::string::npos) {
        e.definition = cur;  // cannot happen for generated functions
      } else {
        e.definition = cur.substr(0, at) + "pad[0] = n + " + std::to_string(count_ + 1) +
                       cur.substr(semi);
      }
    }
    current_[key] = e.definition;
    ++count_;
    return e;
  }

 private:
  static bool IsLeaf(const std::string& def) {
    // A generated leaf calls nothing but the builtin; any "fn_" call after
    // the signature means the body still has callees.
    size_t body = def.find('{');
    return body != std::string::npos && def.find("fn_", body) == std::string::npos;
  }

  // The function's definition in the generated module text: the line that
  // opens "void <name>(int n)" without ending in ';', through its closing
  // "}" line.
  std::string OriginalDefinition(const std::string& module, const std::string& function) const {
    const std::string& text = texts_.at(module);
    const std::string head = "\nvoid " + function + "(int n)";
    size_t pos = 0;
    while ((pos = text.find(head, pos)) != std::string::npos) {
      size_t eol = text.find('\n', pos + 1);
      if (eol != std::string::npos && text[eol - 1] != ';') {
        size_t close = text.find("\n}\n", pos + 1);
        if (close != std::string::npos) {
          return text.substr(pos + 1, close + 3 - (pos + 1));
        }
      }
      pos += head.size();
    }
    return "void " + function + "(int n) {\n  int pad[8]; pad[0] = n;\n}\n";
  }

  Rand rng_;
  std::map<std::string, std::string> texts_;
  std::map<std::string, std::string> current_;
  int last_module_ = -1;
  int count_ = 0;
};

// Per-module rendering of an epoch (summary rows + findings), for diffing
// what an edit's relink actually changed.
std::map<std::string, std::string> EpochByModule(const ivy::EpochSnapshot& s) {
  std::map<std::string, std::string> out;
  for (size_t i = 0; i < s.summaries.size(); ++i) {
    out[s.summaries[i].module] += s.summaries_canon[i] + "\n";
  }
  for (size_t i = 0; i < s.findings.size(); ++i) {
    out[s.findings[i].module] += "F" + s.findings_canon[i] + "\n";
  }
  return out;
}

std::string ModuleRows(const ivy::EpochSnapshot& s, const std::string& module) {
  std::string out;
  for (size_t i = 0; i < s.summaries.size(); ++i) {
    if (s.summaries[i].module == module) out += s.summaries_canon[i] + "\n";
  }
  return out;
}

std::unique_ptr<ivy::AnnodServer> StartServer(const std::vector<ivy::ModuleSources>& corpus,
                                              const std::string& store_dir, Report* rep) {
  ivy::AnnodServer::Options o;
  o.pipeline = TimedPipeline().Build();
  o.store_dir = store_dir;
  std::remove((store_dir + "/" + kCorpus + ".store").c_str());
  auto server = std::make_unique<ivy::AnnodServer>(std::move(o));
  server->OpenCorpus(kCorpus);
  for (const ivy::ModuleSources& m : corpus) {
    server->EnqueueUpsert(kCorpus, m);
  }
  std::string err;
  ++rep->attempted;
  if (!server->Start("127.0.0.1:0", &err)) {
    rep->Fail("server Start: " + err);
    return nullptr;
  }
  if (server->SyncEpoch(kCorpus) == 0) {
    rep->Fail("server published no first epoch");
    return nullptr;
  }
  return server;
}

void StopServer(std::unique_ptr<ivy::AnnodServer>* server) {
  if (*server != nullptr) {
    (*server)->RequestShutdown();
    (*server)->Wait();
    server->reset();
  }
}

// The open-loop query stream on its own connection: one query due every
// 1/rate seconds, timed from its due time, rotating full-corpus findings,
// per-module findings and per-function summaries in equal thirds (the
// rotation bench_analysis_perf's server section uses, with its per-module
// summaries narrowed to one function).
struct QueryStream {
  static constexpr int kShapes = 3;
  static constexpr const char* kShapeNames[kShapes] = {"full-corpus findings",
                                                      "per-module findings",
                                                      "per-function summaries"};
  std::vector<double> latency_ms;
  std::vector<double> shape_ms[kShapes];  // latency by query shape

  // The query p50: each shape's median latency, averaged over the equal
  // thirds of the mix. The pooled median of three shapes whose latencies
  // differ several-fold falls in a gap between them and jumps from one to
  // the next on small shifts; each shape's own median does not.
  double P50Ms() const {
    double sum = 0;
    for (const std::vector<double>& v : shape_ms) sum += Median(v);
    return sum / kShapes;
  }
  std::vector<double> late_ms;
  double reply_bytes = 0;
  double decode_ms = 0;
  int64_t sent = 0;
  int64_t failed = 0;
  std::string first_error;

  void Run(const std::string& address, uint64_t seed, double deadline_s, bool measure_wire,
           const std::atomic<bool>* stop) {
    ivy::AnnodClient client;
    std::string err;
    if (!client.Connect(address, &err)) {
      ++failed;
      first_error = "query connect: " + err;
      return;
    }
    Rand rng(seed ^ 0x9e37ULL);
    const double start = NowS();
    for (int64_t i = 0;; ++i) {
      const double due = start + static_cast<double>(i) / kQueryRatePerS;
      if (due >= deadline_s || stop->load()) break;
      double now = NowS();
      if (now < due) {
        std::this_thread::sleep_for(std::chrono::duration<double>(due - now));
        now = NowS();
      }
      late_ms.push_back((now - due) * 1000);
      // Every module in turn, so each run asks about the same mix.
      const int m = static_cast<int>((i / kShapes) % kCorpusModules);
      ivy::RowsReplyMsg rows;
      bool ok;
      if (i % kShapes == 0) {
        ivy::FindingsQueryMsg q;
        q.corpus = kCorpus;
        ok = client.QueryFindings(q, &rows, &err);
      } else if (i % kShapes == 1) {
        ivy::FindingsQueryMsg q;
        q.corpus = kCorpus;
        q.module = ivy::LinkedModuleName(m);
        ok = client.QueryFindings(q, &rows, &err);
      } else {
        ivy::SummariesQueryMsg q;
        q.corpus = kCorpus;
        q.function = ivy::SynthFuncName(ivy::LinkedModulePrefix(m),
                                        static_cast<int>(rng.Below(kCorpusFunctions)));
        ok = client.QuerySummaries(q, &rows, &err);
      }
      latency_ms.push_back(MsSince(due));
      shape_ms[i % kShapes].push_back(latency_ms.back());
      ++sent;
      if (!ok || (i % kShapes == 2 && rows.rows.empty())) {
        ++failed;
        if (first_error.empty()) {
          first_error = "query: " + (ok ? "no summary row for a defined function" : err);
        }
        if (!ok) return;  // a transport failure closes the connection
        continue;
      }
      if (measure_wire) {
        // The reply as it crossed the wire, and the client-side decode of it.
        std::string payload = rows.Encode();
        reply_bytes += static_cast<double>(payload.size());
        ivy::RowsReplyMsg again;
        double t0 = NowS();
        again.Decode(payload);
        decode_ms += MsSince(t0);
      }
    }
  }
};

struct EditOutcome {
  double latency_ms = 0;
  double latency_ref_ms = 0;  // at reference speed (untraced phase)
  bool fact_change = false;   // the planner's intent: even edits
  bool fact_changed = false;  // measured: the edited module's rows changed
  int useful = 0;  // modules whose summary rows or findings changed
};

}  // namespace

std::string EditServeDigest(uint64_t seed) {
  std::vector<ivy::ModuleSources> corpus = LinkedCorpus(seed);
  Digest d;
  AddCorpusDigest(corpus, &d);
  EditPlanner plan(seed, corpus);
  for (int i = 0; i < 64; ++i) {
    Edit e = plan.Next();
    d.Add(e.module);
    d.Add(e.function);
    d.Add(e.definition);
  }
  return d.Hex();
}

bool EpochMatchesCold(const ivy::EpochSnapshot& served, ivy::AnalysisSession* cold,
                      const std::vector<Edit>& edits, Report* rep,
                      ivy::SessionResult* cold_result) {
  for (const Edit& e : edits) {
    cold->ReplaceFunction(e.module, e.function, e.definition);
  }
  ivy::SessionResult result = cold->RunLinked();
  auto snap = ivy::BuildEpochSnapshot(served.id, result, cold->link_table());
  bool ok = GateEqual("served findings vs cold batch", served.findings_canon,
                      snap->findings_canon, rep) &&
            GateEqual("served summaries vs cold batch", served.summaries_canon,
                      snap->summaries_canon, rep);
  if (cold_result != nullptr) *cold_result = std::move(result);
  return ok;
}

void RunEditServe(const Options& opt, Report* rep) {
  const std::string store_dir = opt.workdir;
  std::vector<double> setup_s;
  std::vector<ivy::ModuleSources> corpus;
  std::unique_ptr<ivy::AnnodServer> server;
  for (int i = 0; i < 3; ++i) {
    StopServer(&server);
    double t0 = NowS();
    corpus = LinkedCorpus(opt.seed);
    server = StartServer(corpus, store_dir, rep);
    if (server == nullptr) return;
    setup_s.push_back(NowS() - t0);
  }
  rep->digest = EditServeDigest(opt.seed);

  ivy::AnnodClient editor;
  std::string err;
  ivy::StatsReplyMsg stats0;
  ++rep->attempted;
  if (!editor.Connect(server->bound_address(), &err) || !editor.Stats(kCorpus, &stats0, &err)) {
    rep->Fail("editor connect: " + err);
    StopServer(&server);
    return;
  }

  EditPlanner planner(opt.seed, corpus);
  std::vector<Edit> applied;
  std::vector<EditOutcome> plain;
  std::vector<EditOutcome> traced;
  std::shared_ptr<const ivy::EpochSnapshot> prev = server->Snapshot(kCorpus);
  LinkLayers link;
  double publish_span_ms = 0;
  QueryStream queries;
  Yardstick yard;
  QueryStream traced_queries;
  std::atomic<bool> stop{false};

  // One closed-loop edit: send, Sync, read the edited module's findings
  // from the new epoch. Diffing the epochs afterwards is outside the timing.
  auto one_edit = [&](std::vector<EditOutcome>* out) -> bool {
    Edit e = planner.Next();
    EditOutcome o;
    ivy::RowsReplyMsg rows;
    uint64_t at_enqueue = 0;
    uint64_t epoch = 0;
    ivy::FindingsQueryMsg q;
    q.corpus = kCorpus;
    q.module = e.module;
    const double t0 = NowS();
    bool ok = editor.ReplaceFunction(kCorpus, e.module, e.function, e.definition, &at_enqueue,
                                     &err) &&
              editor.Sync(kCorpus, &epoch, &err);
    if (ok) {
      q.epoch = epoch;
      ok = editor.QueryFindings(q, &rows, &err);
    }
    o.latency_ms = MsSince(t0);
    ++rep->attempted;
    applied.push_back(e);
    if (!ok || epoch <= at_enqueue || rows.epoch != epoch) {
      rep->Fail("edit " + e.module + ":" + e.function + ": " +
                (ok ? "findings not read from the new epoch" : err));
      return false;
    }
    std::shared_ptr<const ivy::EpochSnapshot> snap = server->Snapshot(kCorpus, epoch);
    if (snap == nullptr || !snap->apply_errors.empty()) {
      rep->Fail("edit " + e.module + ":" + e.function + " did not apply" +
                (snap != nullptr ? ": " + snap->apply_errors.front() : std::string()));
      return false;
    }
    std::map<std::string, std::string> before = EpochByModule(*prev);
    std::map<std::string, std::string> after = EpochByModule(*snap);
    for (const auto& [mod, text] : after) {
      if (before[mod] != text) ++o.useful;
    }
    o.fact_change = e.fact_change;
    o.fact_changed = ModuleRows(*prev, e.module) != ModuleRows(*snap, e.module);
    prev = snap;
    out->push_back(o);
    return true;
  };

  // Untraced phase (the whole run with --trace 0, the first half with
  // --trace 1), then with --trace 1 a traced phase of the same length.
  auto phase = [&](double seconds, bool traced_phase, QueryStream* qs,
                   std::vector<EditOutcome>* out) -> bool {
    const double deadline = NowS() + seconds;
    stop = false;
    std::thread qthread([&] {
      qs->Run(server->bound_address(), opt.seed + (traced_phase ? 1 : 0), deadline,
              traced_phase, &stop);
    });
    bool ok = true;
    while (ok && (out->empty() || NowS() < deadline)) {
      ok = one_edit(out);
      if (ok && !traced_phase) {
        EditOutcome& o = out->back();
        o.latency_ref_ms = o.latency_ms * yard.Follow(o.latency_ms);
      }
    }
    stop = true;
    qthread.join();
    rep->attempted += qs->sent;
    if (qs->failed > 0) {
      rep->failed += qs->failed - 1;
      rep->Fail(qs->first_error);
      ok = false;
    }
    return ok;
  };

  bool ok = phase(opt.trace ? opt.seconds / 2 : opt.seconds, false, &queries, &plain);
  if (ok && opt.trace) {
    BeginTraced();  // quiesced: every relink has been synced, no query in flight
    ok = phase(opt.seconds / 2, true, &traced_queries, &traced);
    if (ok) {
      link = ReadLinkLayers();
      publish_span_ms = CollectSpans().Ms("server.publish");
    }
  }
  ivy::StatsReplyMsg stats1;
  ++rep->attempted;
  if (ok && !editor.Stats(kCorpus, &stats1, &err)) {
    rep->Fail("stats: " + err);
    ok = false;
  }
  if (ok && !stats1.apply_errors.empty()) {
    rep->Fail("edits failed to apply: " + stats1.apply_errors.front());
    ok = false;
  }
  std::shared_ptr<const ivy::EpochSnapshot> final_epoch = server->Snapshot(kCorpus);
  editor.Disconnect();
  StopServer(&server);  // drains and writes <store_dir>/bench.store
  if (opt.trace) {
    EndTraced();
    link.steals = static_cast<double>(CounterValue("workqueue.steals"));
    link.idle_waits = static_cast<double>(CounterValue("workqueue.idle_waits"));
  }
  if (!ok) return;

  // Gate: the final epoch equals a cold batch RunLinked over the final sources.
  ivy::SessionResult cold_result;
  ivy::PipelineBuilder cold_builder = ivy::SynthServePipeline();
  cold_builder.ForEachModule(corpus);
  ivy::AnalysisSession cold = cold_builder.BuildSession();
  ++rep->attempted;
  if (final_epoch == nullptr) {
    rep->Fail("no final epoch");
    return;
  }
  if (!EpochMatchesCold(*final_epoch, &cold, applied, rep, &cold_result)) {
    return;
  }

  std::vector<EditOutcome> all = plain;
  all.insert(all.end(), traced.begin(), traced.end());
  int changed = 0;
  for (const EditOutcome& o : all) changed += o.fact_changed ? 1 : 0;
  std::vector<double> edit_ms;
  std::vector<double> change_ms;
  std::vector<double> neutral_ms;
  std::vector<double> change_ref_ms;
  std::vector<double> neutral_ref_ms;
  for (const EditOutcome& o : plain) {
    edit_ms.push_back(o.latency_ms);
    (o.fact_change ? change_ms : neutral_ms).push_back(o.latency_ms);
    (o.fact_change ? change_ref_ms : neutral_ref_ms).push_back(o.latency_ref_ms);
  }
  const int64_t store_bytes = [&] {
    std::ifstream in(store_dir + "/" + kCorpus + ".store", std::ios::binary | std::ios::ate);
    return in ? static_cast<int64_t>(in.tellg()) : int64_t{-1};
  }();
  rep->Named("setup_s", Median(setup_s), "s", "(median of 3 server starts to first epoch)");
  rep->Named("edit_p50_ms", Median(edit_ms), "ms",
             "(median of " + std::to_string(edit_ms.size()) + " edits)");
  NameTail("edit_tail_ms", TailOf(edit_ms), rep);
  rep->Note("edit p50 by kind: fact-changing " + Fmt(Median(change_ms), "ms") + " (" +
            std::to_string(change_ms.size()) + "), fact-neutral " +
            Fmt(Median(neutral_ms), "ms") + " (" + std::to_string(neutral_ms.size()) + ")");
  rep->Named("query_p50_ms", queries.P50Ms(), "ms",
             "(mean of the three query shapes' medians; " +
                 std::to_string(queries.latency_ms.size()) + " queries at " +
                 Fmt(kQueryRatePerS, "1/s") + ")");
  NameTail("query_tail_ms", TailOf(queries.latency_ms), rep);
  rep->Named("peak_rss_mb", PeakRssMb(), "MB");
  NoteHostSpeed(yard, rep);
  rep->Named("fact_change_share", static_cast<double>(changed) / static_cast<double>(all.size()),
             "frac", "(edits whose module's summary rows changed, of " +
                         std::to_string(all.size()) + ")");
  rep->Note("open-loop generator lateness p50 = " + Fmt(Median(queries.late_ms), "ms"));
  {
    std::string line = "query p50 by shape:";
    double mean_ms = 0;
    for (int k = 0; k < QueryStream::kShapes; ++k) {
      line += std::string(k == 0 ? " " : ", ") + QueryStream::kShapeNames[k] + " " +
              Fmt(Median(queries.shape_ms[k]), "ms");
    }
    for (double ms : queries.latency_ms) mean_ms += ms;
    if (!queries.latency_ms.empty()) mean_ms /= static_cast<double>(queries.latency_ms.size());
    rep->Note(line + "; offered load " + Fmt(kQueryRatePerS * mean_ms / 1000, "") +
              "(rate x mean latency)");
  }
  rep->Note("final store_bytes = " + std::to_string(store_bytes) + ", epochs published = " +
            std::to_string(final_epoch->id));

  if (!opt.trace) {
    rep->Set("setup_s", Median(setup_s), "s");
    rep->Set("primary_p50_ref_ms", Median(change_ref_ms), "ms");
    rep->Set("secondary_p50_ref_ms", Median(neutral_ref_ms), "ms");
    rep->Set("peak_rss_mb", PeakRssMb(), "MB");
    rep->Set("artifact_bytes", static_cast<double>(store_bytes), "bytes");
    return;
  }

  // Per-layer numbers, per edit of the traced phase.
  const double n = static_cast<double>(traced.size());
  auto per_edit = [n](double v) { return v / n; };
  LinkLayers per = link;
  for (double LinkLayers::*f :
       {&LinkLayers::link_round_ms, &LinkLayers::rounds, &LinkLayers::analyses,
        &LinkLayers::parse_ms, &LinkLayers::sema_ms, &LinkLayers::fingerprint_ms,
        &LinkLayers::blockstop_ms, &LinkLayers::stackcheck_ms, &LinkLayers::errcheck_ms,
        &LinkLayers::locksafe_ms}) {
    per.*f = per_edit(link.*f);
  }
  std::vector<std::vector<ivy::SourceFile>> programs;
  for (const ivy::ModuleSources& m : corpus) programs.push_back(m.files);
  FrontendReplay replay = ReplayFrontend(programs, /*deputy=*/true);
  if (!replay.ok) {
    rep->Fail("frontend replay: " + replay.error);
    return;
  }
  SetFrontendMetrics(replay, rep);
  double useful = 0;
  for (const EditOutcome& o : traced) useful += o.useful;
  SetLinkMetrics(per, replay, kCorpusModules, per_edit(useful), rep);

  {
    double t0 = NowS();
    auto snap = ivy::BuildEpochSnapshot(1, cold_result, cold.link_table());
    rep->Set("server.epoch_build_ms", MsSince(t0), "ms");
  }
  // One more fact-changing edit on the gate's session: the solver counters
  // of an incremental relink (the server's own session is not reachable).
  {
    Edit e = planner.Next();
    if (!e.fact_change) e = planner.Next();
    cold.ReplaceFunction(e.module, e.function, e.definition);
    cold.RunLinked();
    const ivy::ModuleStats ms = cold.StatsFor(e.module);
    rep->Set("analysis.pointsto_propagations", static_cast<double>(ms.pointsto_propagations),
             "count");
    rep->Set("blockstop.mayblock_evals", static_cast<double>(ms.mayblock_evals), "count");
  }
  rep->Set("server.publish_p50_ms", static_cast<double>(stats1.publish_p50_us) / 1000, "ms");
  rep->Set("server.edit_queue_peak", static_cast<double>(stats1.edit_queue_peak), "count");
  rep->Set("server.relinks_per_edit",
           static_cast<double>(stats1.relinks - stats0.relinks) / static_cast<double>(all.size()),
           "count");
  const double tq = static_cast<double>(std::max<size_t>(1, traced_queries.latency_ms.size()));
  rep->Set("wire.reply_bytes", traced_queries.reply_bytes / tq, "bytes");
  rep->Set("wire.decode_ms", traced_queries.decode_ms / tq, "ms");
  rep->Set("workqueue.steals", link.steals, "count");
  rep->Set("workqueue.idle_waits", link.idle_waits, "count");
  std::vector<double> traced_ms;
  for (const EditOutcome& o : traced) traced_ms.push_back(o.latency_ms);
  rep->Set("layers.coverage_frac",
           (per.link_round_ms + per_edit(publish_span_ms)) / Median(traced_ms), "frac");
  rep->Set("trace.overhead_frac", Median(traced_ms) / Median(edit_ms) - 1.0, "frac");
  std::vector<double> late = queries.late_ms;
  late.insert(late.end(), traced_queries.late_ms.begin(), traced_queries.late_ms.end());
  rep->Set("query.gen_late_ms", Median(late), "ms");
  WriteChromeTrace(opt.workdir + "/trace_edit_serve.json");
}

}  // namespace ivybench
