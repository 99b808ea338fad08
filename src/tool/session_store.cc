// The persistent half of AnalysisSession: SaveStore/LoadStore (warm starts
// across process restarts) and the multi-process distributed relink
// (RunLinkedDistributed / RunStoreWorker). Split from session.cc so the
// in-memory pipeline code stays independent of src/store.
//
// Soundness of the warm start and of cold worker re-analysis both reduce to
// the determinism contract: analysis is a pure function of (sources, recipe,
// imported facts), so restored state is byte-identical to what re-analysis
// would produce, and a worker that re-analyzes a module cold against the
// coordinator's round table exports exactly the rows an in-process round
// would have. Crash recovery rests on the fixpoint being monotone from a
// retracted base: any store written mid-run holds a table ≤ the least
// fixpoint, and the fixpoint is source-determined, so reloading an
// unconverged store with every module dirty converges to identical bytes.
#include <cstdio>
#include <future>
#include <utility>

#include "src/store/store.h"
#include "src/support/clock.h"
#include "src/support/subprocess.h"
#include "src/support/trace.h"
#include "src/tool/session.h"
#include "src/tool/session_state.h"

namespace ivy {

namespace {

void SetErr(std::string* err, const std::string& what) {
  if (err != nullptr) {
    *err = what;
  }
}

std::vector<std::pair<std::string, std::string>> FilePairs(
    const std::vector<SourceFile>& files) {
  std::vector<std::pair<std::string, std::string>> out;
  out.reserve(files.size());
  for (const SourceFile& f : files) {
    out.emplace_back(f.name, f.text);
  }
  return out;
}

// Runs one worker per shard, each from its own thread — in process through
// the test hook, else as a subprocess the thread spawns and waits for — and
// joins them all, so the store is quiescent on return. One "relink.worker"
// span and "relink.worker_us" histogram sample per worker: the skew between
// the fastest and slowest worker is the fleet's idle cost.
bool RunWorkers(const DistributedLinkOptions& opts,
                const std::vector<std::vector<std::string>>& shards, std::string* err) {
  auto run = [&opts](const std::vector<std::string>& shard, std::string* werr) {
    if (opts.run_worker) {
      return opts.run_worker(shard, werr);
    }
    std::string mods;
    for (const std::string& m : shard) {
      mods += (mods.empty() ? "" : ",") + m;
    }
    Subprocess proc;
    return SpawnProcess({opts.worker_argv0, "--worker", "--store", opts.store_path,
                         "--modules", mods},
                        &proc, werr) &&
           WaitProcess(&proc, werr);
  };
  std::vector<std::future<std::pair<bool, std::string>>> futures;
  futures.reserve(shards.size());
  for (const std::vector<std::string>& shard : shards) {
    futures.push_back(std::async(std::launch::async, [&run, &shard] {
      trace::Span wspan("relink.worker", {"modules", static_cast<int64_t>(shard.size())});
      const uint64_t t0 = trace::Enabled() ? MonotonicNowNs() : 0;
      std::string werr;
      const bool ok = run(shard, &werr);
      if (trace::Enabled()) {
        trace::GetHistogram("relink.worker_us")->Record((MonotonicNowNs() - t0) / 1000);
      }
      return std::make_pair(ok, werr);
    }));
  }
  bool failed = false;
  for (auto& f : futures) {
    auto [ok, werr] = f.get();
    if (!ok && !failed) {
      failed = true;
      SetErr(err, werr);
    }
  }
  return !failed;
}

}  // namespace

// ---------------------------------------------------------------------------
// Corpus digest
// ---------------------------------------------------------------------------

uint64_t AnalysisSession::CorpusDigest() const {
  uint64_t h = 14695981039346656037ull;
  auto mix = [&h](const std::string& s) {
    uint64_t n = s.size();
    h = Fnv1a64(&n, sizeof n, h);
    h = Fnv1a64(s.data(), s.size(), h);
  };
  for (const std::string& step : pipeline_.Plan()) {
    mix(step);
  }
  for (const std::string& tool : pipeline_.tools()) {
    mix(tool);
  }
  for (const auto& [tool, opts] : pipeline_.tool_options()) {
    for (const auto& [key, value] : opts.entries()) {
      if (key == "shards") {
        continue;  // sharding cannot change results (the PR 2 contract)
      }
      mix(tool);
      mix(key);
      mix(value);
    }
  }
  const ToolConfig& c = pipeline_.config();
  const uint8_t knobs[7] = {
      static_cast<uint8_t>(c.deputy),       static_cast<uint8_t>(c.discharge),
      static_cast<uint8_t>(c.ccount),       static_cast<uint8_t>(c.smp),
      static_cast<uint8_t>(c.track_locals), static_cast<uint8_t>(c.include_prelude),
      static_cast<uint8_t>(pipeline_.field_sensitive())};
  h = Fnv1a64(knobs, sizeof knobs, h);
  const uint64_t rc_bits = static_cast<uint64_t>(c.rc_width_bits);
  h = Fnv1a64(&rc_bits, sizeof rc_bits, h);
  return h;
}

// ---------------------------------------------------------------------------
// Snapshot / restore
// ---------------------------------------------------------------------------

StoreFile AnalysisSession::BuildStoreSnapshot(bool linked, bool converged) const {
  StoreFile sf;
  sf.corpus_digest = CorpusDigest();
  sf.linked = linked;
  sf.converged = converged;
  for (const auto& [name, st] : modules_) {
    StoreModule m;
    m.name = name;
    m.files = FilePairs(st->files);
    m.source_digest = SourcesDigest(m.files);
    // A dirty module's cached analysis (if any) belongs to *older* sources;
    // persisting the pair would let a loader treat stale facts as current.
    // Dirty modules are stored sources-only and re-analyze cold on load.
    m.analyzed = !st->dirty;
    if (m.analyzed) {
      m.ok = st->ok;
      m.compile_errors = st->compile_errors;
      m.import_sig = st->import_sig;
      m.has_link_names = st->have_link_names;
      m.defined_names.assign(st->defined_names.begin(), st->defined_names.end());
      m.extern_refs.assign(st->extern_refs.begin(), st->extern_refs.end());
      if (st->ok) {
        // Unstamped — exactly the per-module cache MergeResult stamps, so a
        // restored module merges byte-identically.
        m.findings = st->result.findings;
      }
    }
    sf.modules.emplace(name, std::move(m));
  }
  sf.summaries = link_table_.summaries();
  return sf;
}

bool AnalysisSession::ImportStoreRecord(StoreModule&& rec, std::string* err) {
  if (!rec.analyzed) {
    SetErr(err, "module '" + rec.name + "' has no analysis state to import");
    return false;
  }
  auto& st = modules_[rec.name];
  if (st == nullptr) {
    st = std::make_unique<ModuleState>();
  }
  if (st->files.empty()) {
    for (const auto& [fname, text] : rec.files) {
      st->files.push_back(SourceFile{fname, text});
    }
  } else if (SourcesDigest(FilePairs(st->files)) != rec.source_digest) {
    SetErr(err, "module '" + rec.name + "': record sources differ from the session's");
    return false;
  }

  const bool keep_names = !rec.has_link_names && st->have_link_names;
  // Destroy the live context before touching the link seeds it points into.
  st->ctx.reset();
  st->comp.reset();
  st->dirty = false;
  st->ok = rec.ok;
  st->analyzed_now = false;
  st->compile_errors = rec.compile_errors;
  st->import_sig = rec.import_sig;
  st->link_seeds.clear();
  if (!keep_names) {
    // A compile-failed worker record carries no names; the coordinator
    // keeps the module's previous edge structure — exactly what the
    // in-process path does when Analyze never runs.
    st->link_names_changed = true;
    st->have_link_names = rec.has_link_names;
    st->defined_names =
        std::set<std::string>(rec.defined_names.begin(), rec.defined_names.end());
    st->extern_refs =
        std::set<std::string>(rec.extern_refs.begin(), rec.extern_refs.end());
  }
  st->stats = ModuleStats{};
  st->result = PipelineResult{};
  if (rec.ok) {
    st->result.findings = std::move(rec.findings);
  }
  return true;
}

bool AnalysisSession::SaveStore(const std::string& path, std::string* err) const {
  const bool converged = linked_ever_ && link_stats_.converged;
  return WriteStoreFile(path, BuildStoreSnapshot(linked_ever_, converged), err);
}

bool AnalysisSession::LoadStore(const std::string& path, std::string* err) {
  StoreFile sf;
  if (!ReadStoreFile(path, &sf, err)) {
    return false;
  }
  if (sf.corpus_digest != CorpusDigest()) {
    SetErr(err, "store '" + path + "' has a stale corpus digest (the analysis recipe changed)");
    return false;
  }
  // DecodeStore validated every record, so LoadStore either restores or
  // leaves the session untouched — never half-warm.
  for (auto& [name, rec] : sf.modules) {
    auto it = modules_.find(name);
    if (it != modules_.end()) {
      ModuleState* st = it->second.get();
      if (SourcesDigest(FilePairs(st->files)) != rec.source_digest) {
        // The session already holds *newer* sources: keep them (and the
        // dirty bit), but adopt the record's link-name sets when the
        // session has none — that is the edge structure an in-process
        // session would remember from the pre-edit analysis, and it is
        // what scopes the next RunLinked's retraction component.
        if (rec.has_link_names && !st->have_link_names) {
          st->have_link_names = true;
          st->link_names_changed = true;
          st->defined_names =
              std::set<std::string>(rec.defined_names.begin(), rec.defined_names.end());
          st->extern_refs =
              std::set<std::string>(rec.extern_refs.begin(), rec.extern_refs.end());
        }
        continue;
      }
      if (!st->dirty) {
        continue;  // already warm in memory; its state is richer than ours
      }
    }
    if (!rec.analyzed) {
      // Stored mid-edit: sources only, analyzes cold.
      if (it == modules_.end()) {
        std::vector<SourceFile> files;
        for (const auto& [fname, text] : rec.files) {
          files.push_back(SourceFile{fname, text});
        }
        AddModule(name, std::move(files));
      }
      continue;
    }
    if (!ImportStoreRecord(std::move(rec), err)) {
      return false;
    }
  }

  // The link memo is not persisted, and a loaded table starts a new history.
  for (auto& [name, st] : modules_) {
    (void)name;
    st->memo.clear();
    st->memo_key.clear();
  }
  LoadLinkRows(std::move(sf.summaries));
  linked_ever_ = sf.linked;
  link_stats_ = LinkStats{};
  link_stats_.converged = sf.linked && sf.converged;
  link_stats_.summary_rows = static_cast<int>(link_table_.summaries().size());
  link_conflicts_.clear();
  if (sf.linked) {
    // Rebuilds link_conflicts_ and re-derives the corpus stack facts from
    // the loaded rows — idempotent on a converged table (the facts are part
    // of the canonical rows), so a warm RunLinked sees no diff.
    ComputeLinkStackFacts(nullptr);
    if (!sf.converged) {
      // The store was written mid-fixpoint (a crash, a killed worker). The
      // table is ≤ the least fixpoint but possibly mixed-round; the one
      // safe warm start is "everything dirty": a monotone re-derivation
      // from the retracted base converges to the same source-determined
      // fixpoint a cold run reaches.
      for (auto& [name, st] : modules_) {
        (void)name;
        st->dirty = true;
      }
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Distributed relink
// ---------------------------------------------------------------------------

SessionResult AnalysisSession::RunLinkedDistributed(const DistributedLinkOptions& opts) {
  SessionResult result = LinkFixpoint([this, &opts](RoundExports* exports, std::string* err) {
    if (DistributedStep(opts, exports, err)) {
      return true;
    }
    *err = "distributed relink failed: " + *err;
    return false;
  });

  // Persist the outcome (converged or resumable-unconverged) and drop the
  // round snapshot. A failure to write is reported but does not poison the
  // in-memory result.
  std::string werr;
  if (!result.cancelled && !SaveStore(opts.store_path, &werr)) {
    result.findings.push_back(SessionError("distributed relink: cannot write store: " + werr));
  }
  std::remove((opts.store_path + ".round").c_str());
  return result;
}

bool AnalysisSession::DistributedStep(const DistributedLinkOptions& opts, RoundExports* exports,
                                      std::string* err) {
  std::vector<std::string> dirty_names;
  for (auto& [name, st] : modules_) {
    st->analyzed_now = false;
    if (st->dirty) {
      dirty_names.push_back(name);
    }
  }
  // Fleet observability: one span per step (snapshot, fan-out, merge read)
  // inside the round's session.link_round span.
  trace::Span round_span("relink.round",
                         {"round", static_cast<int64_t>(link_stats_.rounds)},
                         {"dirty", static_cast<int64_t>(dirty_names.size())});
  if (dirty_names.empty()) {
    return true;
  }

  // Publish the round base, encoded once. Workers read the immutable
  // `.round` snapshot — never the live store — so every worker in a round
  // imports the same pre-round table regardless of sibling merge order;
  // the live store is the merge target they fold deltas into.
  const std::string base =
      EncodeStore(BuildStoreSnapshot(/*linked=*/true, /*converged=*/false));
  if (!WriteStoreBytes(opts.store_path, base, err) ||
      !WriteStoreBytes(opts.store_path + ".round", base, err)) {
    return false;
  }

  // Deterministic assignment: round-robin over the sorted dirty list.
  // Byte-identity across worker counts is a tested property, so the
  // assignment is a performance choice, not a correctness one.
  const int nworkers =
      std::min<int>(std::max(1, opts.workers), static_cast<int>(dirty_names.size()));
  std::vector<std::vector<std::string>> shards(static_cast<size_t>(nworkers));
  for (size_t i = 0; i < dirty_names.size(); ++i) {
    shards[i % static_cast<size_t>(nworkers)].push_back(dirty_names[i]);
  }
  if (!RunWorkers(opts, shards, err)) {
    return false;
  }

  StoreFile merged;
  if (!ReadStoreFile(opts.store_path, &merged, err)) {
    return false;
  }
  for (const std::string& name : dirty_names) {
    auto rec = merged.modules.find(name);
    if (rec == merged.modules.end() || !rec->second.analyzed) {
      SetErr(err, "worker produced no result for module '" + name + "'");
      return false;
    }
    if (!ImportStoreRecord(std::move(rec->second), err)) {
      return false;
    }
    ModuleState& st = *modules_.at(name);
    st.analyzed_now = true;
    // The worker analyzed against the round base, which is still the table:
    // the fixpoint publishes only after the step returns.
    ImportSignatures(name, st.defined_names, st.extern_refs, nullptr, &st.memo_key);
    std::vector<FuncSummary>& rows = (*exports)[name];
    for (auto it = merged.summaries.lower_bound({name, std::string()});
         it != merged.summaries.end() && it->first.first == name; ++it) {
      rows.push_back(std::move(it->second));
    }
  }
  return true;
}

bool AnalysisSession::RunStoreWorker(Pipeline pipeline, const std::string& store_path,
                                     const std::vector<std::string>& modules,
                                     std::string* err) {
  StoreFile round;
  if (!ReadStoreFile(store_path + ".round", &round, err)) {
    return false;
  }
  AnalysisSession session(std::move(pipeline));
  if (session.CorpusDigest() != round.corpus_digest) {
    SetErr(err, "round snapshot has a different corpus digest");
    return false;
  }
  // Only the assigned shard is registered; the rest of the corpus is
  // visible solely through the summary table — which is the whole point of
  // summary-based linking (a worker's memory footprint is its shard).
  for (const std::string& name : modules) {
    auto it = round.modules.find(name);
    if (it == round.modules.end()) {
      SetErr(err, "module '" + name + "' is not in the round snapshot");
      return false;
    }
    std::vector<SourceFile> files;
    for (const auto& [fname, text] : it->second.files) {
      files.push_back(SourceFile{fname, text});
    }
    session.AddModule(name, std::move(files));
  }
  session.LoadLinkRows(std::move(round.summaries));

  // Plain Run(), not RunLinked: the coordinator owns the fixpoint; a worker
  // contributes exactly one round's worth of analysis. Cold re-analysis is
  // exact by the determinism contract.
  SessionResult r = session.Run();
  if (r.cancelled) {
    SetErr(err, "worker run was cancelled");
    return false;
  }

  // Build the delta: this shard's records + fresh summary rows.
  StoreFile snap = session.BuildStoreSnapshot(/*linked=*/false, /*converged=*/false);
  std::map<std::string, StoreModule> records;
  std::map<std::pair<std::string, std::string>, FuncSummary> rows;
  for (const std::string& name : modules) {
    auto rec = snap.modules.find(name);
    if (rec == snap.modules.end()) {
      SetErr(err, "internal: no snapshot record for '" + name + "'");
      return false;
    }
    records.emplace(name, std::move(rec->second));
    ModuleState* st = session.modules_.find(name)->second.get();
    for (FuncSummary& row : session.ExtractSummaries(name, *st)) {
      std::pair<std::string, std::string> key{row.module, row.function};
      rows[std::move(key)] = std::move(row);
    }
  }

  // Merge into the live store under the advisory lock: replace our own
  // records and our modules' summary rows, leave everything else (sibling
  // deltas included) untouched, write-temp + rename.
  StoreLock lock;
  if (!lock.Acquire(store_path, err)) {
    return false;
  }
  StoreFile cur;
  if (!ReadStoreFile(store_path, &cur, err)) {
    return false;
  }
  for (auto& [name, rec] : records) {
    for (auto it = cur.summaries.lower_bound({name, std::string()});
         it != cur.summaries.end() && it->first.first == name;) {
      it = cur.summaries.erase(it);
    }
    cur.modules[name] = std::move(rec);
  }
  for (auto& [key, row] : rows) {
    cur.summaries[key] = std::move(row);
  }
  return WriteStoreFile(store_path, cur, err);
}

}  // namespace ivy
