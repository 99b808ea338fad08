// AnalysisSession: the corpus-level pipeline API (the paper's "apply sound
// static analysis at a large scale" made long-lived).
//
// A session owns a corpus of named modules, one shared worker pool for every
// sharded pass kernel (TaskGroup isolation instead of one pool per pass),
// and a frontend cache that lexes the prelude once for the whole corpus:
//
//   AnalysisSession session = PipelineBuilder()
//                                 .AllTools()
//                                 .ShardFunctions(0)
//                                 .ForEachModule(modules)
//                                 .BuildSession();
//   SessionResult cold = session.Run();          // analyzes every module
//   session.ReplaceFunction("net", "udp_sendmsg", edited_definition);
//   SessionResult again = session.Run();         // re-analyzes only "net"
//
// Determinism contract (extends PR 2's): the merged findings are
// byte-identical regardless of module registration order, shard count, pool
// size, and cold-vs-incremental execution. Modules merge in sorted-name
// order; within a module the pipeline's request-order merge applies.
//
// Incremental granularity: the module. A clean module's cached result is
// reused verbatim; a dirty module is recompiled and analyzed with one cold
// solve per analysis. Across modules, RunLinked()'s link memo serves a
// module's exported rows whole when its sources and row-relevant imports
// are unchanged. ModuleStats exposes the solver counters of each module's
// last analysis.
#ifndef SRC_TOOL_SESSION_H_
#define SRC_TOOL_SESSION_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/annodb/annodb.h"
#include "src/support/work_queue.h"
#include "src/tool/pipeline.h"

namespace ivy {

struct StoreFile;    // src/store/store.h
struct StoreModule;

// Per-module outcome of one Run(). `result` is the module's pass output with
// unstamped findings — byte-identical to an independent single-module
// CompileAndRun of the same sources.
struct ModuleRunResult {
  std::string module;
  bool ok = false;          // compiled successfully
  bool reanalyzed = false;  // analyzed during this Run (false: cache reused)
  PipelineResult result;
  std::string compile_errors;
};

struct SessionResult {
  std::vector<ModuleRunResult> modules;  // sorted by module name
  // Every module's findings concatenated in that same order, each stamped
  // with its module name (Finding::module) — the corpus-level merge.
  // Compile failures contribute a severity-error finding from tool
  // "session" so they can never vanish silently.
  std::vector<Finding> findings;
  int modules_analyzed = 0;
  int modules_reused = 0;
  int compile_failures = 0;
  // True when RequestCancel() aborted the run: the result is INCOMPLETE
  // (unanalyzed modules contribute stale or empty findings) and must be
  // discarded. The abandoned modules stay dirty, so the next Run()/
  // RunLinked() resumes exactly where the cancel hit.
  bool cancelled = false;

  const ModuleRunResult* ModuleFor(const std::string& name) const;
  int ErrorCount() const;
};

// Outcome counters of the last RunLinked() fixpoint.
struct LinkStats {
  int rounds = 0;              // analysis rounds until the table stabilized
  int module_analyses = 0;     // real module analyses (rounds + rebuilds)
  int memo_hits = 0;           // dirty modules served from the link memo
  int findings_rebuilds = 0;   // converged-table re-analyses for findings
  int summary_rows = 0;        // rows in the converged fact table
  int cross_edges = 0;         // (importer, definer) module pairs
  bool converged = false;      // false if the safety cap fired or cancelled
  bool cancelled = false;      // RequestCancel() aborted the fixpoint
};

// Multi-process distributed relink (see RunLinkedDistributed). The
// coordinator shards each round's dirty modules across `workers` processes
// that exchange summary deltas through the shared store file at
// `store_path` (src/store/store.h: advisory-locked append-then-swap).
struct DistributedLinkOptions {
  std::string store_path;
  int workers = 3;
  // The binary to exec per shard; it must handle
  //   <worker_argv0> --worker --store <store_path> --modules a,b,c
  // by calling AnalysisSession::RunStoreWorker (tools/annolink does).
  std::string worker_argv0;
  // Test hook: when set, dispatch runs this in-process instead of spawning
  // a process — the distributed protocol becomes unit-testable (and
  // TSan-able) without binary paths.
  std::function<bool(const std::vector<std::string>& modules, std::string* err)>
      run_worker;
};

// Solver-effort counters from a module's most recent analysis.
struct ModuleStats {
  bool valid = false;   // module exists and was analyzed at least once
  int64_t pointsto_propagations = 0;
  int64_t mayblock_evals = 0;
};

class AnalysisSession {
 public:
  explicit AnalysisSession(Pipeline pipeline);
  ~AnalysisSession();

  AnalysisSession(AnalysisSession&&) = default;
  AnalysisSession& operator=(AnalysisSession&&) = default;

  // Registers (or replaces) a module. Names key provenance and must be
  // unique; re-adding an existing name replaces its sources and marks it
  // dirty — unless the new sources are byte-identical to a clean module's,
  // which is a no-op (analysis is deterministic, so the cached state is
  // exactly what re-analysis would produce; this is what lets a daemon
  // re-seed its corpus after LoadStore without discarding the warm start).
  void AddModule(const std::string& name, std::vector<SourceFile> files);
  void AddModule(ModuleSources module);
  bool RemoveModule(const std::string& name);

  // Marks a module for re-analysis: the next Run() recompiles it and
  // analyzes it cold.
  void Invalidate(const std::string& name);

  // Textually replaces one top-level function definition inside the
  // module's sources with `new_definition` (a complete definition including
  // signature and body) and invalidates the module. Returns false if the
  // module or a definition of `function` was not found.
  bool ReplaceFunction(const std::string& module, const std::string& function,
                       const std::string& new_definition);

  // Wholesale source replacement + Invalidate (for arbitrary edits).
  bool ReplaceModuleSources(const std::string& name, std::vector<SourceFile> files);

  // Compiles and analyzes every dirty module (batched: shared prelude
  // tokens, shared pool, modules analyzed concurrently when the pipeline is
  // Parallel), reuses every clean module's cached result, and returns the
  // deterministic corpus merge. Modules are analyzed as independent
  // programs — calls into other modules are opaque (see RunLinked).
  SessionResult Run();

  // The link stage: Run() in rounds, with per-function summaries flowing
  // between modules through the annodb fact table until it stops changing.
  // After each round the summaries of every re-analyzed module are
  // re-exported and diffed; modules that import a changed fact — callers of
  // a function whose bottom-up summary changed, or the definer of a
  // function whose observed usage changed — are marked dirty for the next
  // round, so round N+1 re-analyzes only importers of changed facts.
  //
  // Determinism contract (extends Run()'s): the converged findings are
  // byte-identical regardless of module registration order, shard count,
  // and cold-vs-incremental linking; on a corpus whose modules share facts
  // only through declared extern functions, the converged finding set
  // equals the merged-source single-program run's (see
  // tests/session_linked_test.cc and docs/ARCHITECTURE.md for the exact
  // statement, including the stackcheck per-report caveat).
  //
  // Incremental: a later RunLinked() after source edits retracts the
  // cross-module dependency component containing the edited modules and
  // replays its fixpoint from below; everything outside keeps its converged
  // facts and cached results. The replay is cheap through an early-cutoff
  // memo: a module's exported rows are a pure function of its sources and
  // the non-stack rows it imports, so a dirty module whose sources are
  // unchanged and whose row-relevant import signature was seen before gets
  // its rows from the memo without compiling. Rounds, dirty sets and the
  // table are exactly what full re-analysis would produce. Findings always
  // come from a real analysis: at convergence, every module whose full
  // import signature differs from the one its findings were computed under
  // is analyzed once more (LinkStats::findings_rebuilds).
  SessionResult RunLinked();
  const LinkStats& link_stats() const { return link_stats_; }

  // RunLinked()'s fixpoint loop (memo, stack facts, findings rebuild) with
  // another round step: the modules a round must analyze are partitioned
  // across worker processes that analyze their shard cold (exact by the
  // determinism contract) and merge records and rows into the shared
  // store, which the coordinator reads back. Findings and LinkStats equal
  // single-process RunLinked()'s regardless of worker count and module
  // assignment. A worker failure aborts the round with an error finding,
  // leaves the fixpoint resumable (dirty modules stay dirty, the store
  // stays consistent), and reports converged=false.
  SessionResult RunLinkedDistributed(const DistributedLinkOptions& opts);

  // The worker side of RunLinkedDistributed: reads the coordinator's
  // round snapshot (`store_path + ".round"`), analyzes `modules` against
  // the snapshot's summary table, and merges the resulting records + rows
  // into `store_path` under the store lock.
  static bool RunStoreWorker(Pipeline pipeline, const std::string& store_path,
                             const std::vector<std::string>& modules,
                             std::string* err);

  // Persistent warm start (src/store/store.h). SaveStore snapshots every
  // module's sources + link-stage state + findings and the link table;
  // LoadStore restores them into a fresh session, so the next RunLinked()
  // costs ≈ one incremental relink (one idle round when nothing changed)
  // and produces byte-identical findings. LoadStore returns false — and
  // leaves the session as-is, cold — on a missing/corrupt/stale-digest
  // store; the caller just runs cold. Modules whose current sources differ
  // from the stored ones keep the session's sources and stay dirty.
  bool SaveStore(const std::string& path, std::string* err) const;
  bool LoadStore(const std::string& path, std::string* err);

  // Hash of the analysis recipe (pass plan, per-tool options, points-to
  // precision — deliberately NOT the shard count, which cannot change
  // results): stores carry it so facts computed under one recipe are never
  // warm-started into another.
  uint64_t CorpusDigest() const;

  // Cooperative cancellation for an in-flight Run()/RunLinked() on another
  // thread (the annod server's shutdown-while-relinking path). Checked
  // between module analyses and between link rounds — never mid-kernel — so
  // a cancelled run stops at the next module boundary, leaves every
  // unprocessed module dirty, and reports cancelled=true. The flag is
  // sticky until ClearCancel(); a cancelled session is resumable, not
  // poisoned.
  void RequestCancel() { cancel_->store(true, std::memory_order_release); }
  void ClearCancel() { cancel_->store(false, std::memory_order_release); }
  bool cancel_requested() const { return cancel_->load(std::memory_order_acquire); }

  // The converged fact table (empty before the first RunLinked). The same
  // rows are merged into ExportAnnoDb()'s repository view.
  const AnnoDb& link_table() const { return link_table_; }

  // The §3.2 repository view of the whole corpus: per-module facts merged,
  // findings stamped with module provenance (so a later Run can
  // RetractModule + re-merge without touching other modules' records).
  AnnoDb ExportAnnoDb();

  ModuleStats StatsFor(const std::string& name) const;
  int64_t prelude_reuses() const { return cache_.prelude_reuses; }
  size_t module_count() const { return modules_.size(); }
  const Pipeline& pipeline() const { return pipeline_; }

  // The module's frontend artifacts from its last analysis (null before the
  // first Run or after a compile failure). Callers render finding locations
  // through ->sm; file ids are private to each module's compilation.
  const Compilation* CompilationFor(const std::string& name) const;

  // Moves a module's artifacts out of the session (its cached state is
  // erased). The CompileAndRun shim: a one-module session, run, taken.
  PipelineRun TakeModule(const std::string& name);

 private:
  struct ModuleState;  // defined in session_state.h
  struct LinkRow;
  struct MemoEntry;
  using LinkRowPtr = std::shared_ptr<const LinkRow>;

  // One row of the link table as the fixpoint diffs it: the shared export
  // bytes plus the stack facts the link stage filled in. Equal states have
  // equal FuncSummary::Encode() bytes, and so equal JSON.
  struct LinkRowState {
    LinkRowPtr row;
    int64_t stack_below = -1;
    bool cross_recursive = false;
  };
  // (function, module): a function's rows sit together, in module order.
  using LinkRowKey = std::pair<std::string, std::string>;
  // The pre-round state of every row a round touched (nullopt: absent).
  using LinkDelta = std::map<LinkRowKey, std::optional<LinkRowState>>;
  // Modules that define / extern-declare one function, in sorted order.
  struct LinkNameUsers {
    std::vector<std::string> definers;
    std::vector<std::string> referencers;
  };

  WorkQueue* pool();
  void Analyze(const std::string& name, ModuleState* st);
  // Phases A and B of Run(): compile and analyze every dirty module.
  // Returns true when a cancel stopped it.
  bool AnalyzeDirty();
  // Phase C of Run(): the deterministic corpus merge over the current
  // module states (shared by Run and the link fixpoint, whose distributed
  // step imports worker results into the states instead of analyzing).
  SessionResult MergeResult(bool cancelled) const;

  // The one link fixpoint loop, behind RunLinked and RunLinkedDistributed,
  // parameterized by its round step: analyze every dirty module (marking it
  // analyzed_now and clean, its memo key taken against the table as the
  // step found it) and hand back each analyzed module's exported rows,
  // compile failures included (no rows). A step returns false when it
  // stopped early: a cancel leaves `*err` empty, a failure says why.
  using RoundExports = std::map<std::string, std::vector<FuncSummary>>;
  using RoundStep = std::function<bool(RoundExports* exports, std::string* err)>;
  SessionResult LinkFixpoint(const RoundStep& step);
  // RunLinkedDistributed's step: snapshot, fan-out to workers, merge read.
  bool DistributedStep(const DistributedLinkOptions& opts, RoundExports* exports,
                       std::string* err);
  // The fixpoint's retraction preamble: reset stats, clear or
  // component-retract the table for source-dirty modules.
  void PrepareLinkedRun();
  // The fixpoint's trailer: row/edge counters, non-convergence and
  // multiply-defined-function findings.
  void FinishLinkedRun(int max_rounds, SessionResult* result);

  // Link table maintenance. Every change to link_table_ goes through these,
  // so link_rows_ mirrors it and `delta` (optional) records what moved. A
  // retraction records nothing: its modules are re-derived from scratch.
  void PutLinkRow(LinkRowPtr row, int64_t stack_below, bool cross_recursive,
                  LinkDelta* delta);
  void RetractLinkRows(const std::string& module);
  // Replaces a module's rows with a fresh export.
  void PublishLinkRows(const std::string& module, const std::vector<LinkRowPtr>& rows,
                       LinkDelta* delta);
  // A store's rows (stack facts included) into the table.
  void LoadLinkRows(std::map<std::pair<std::string, std::string>, FuncSummary>&& rows);
  // Importers of the rows that changed since `delta` began — the modules the
  // next round must re-analyze.
  std::set<std::string> DirtyModules(const LinkDelta& delta);
  // The import signatures of a module with the given name sets against the
  // current table. `full` covers every imported row the analysis reads,
  // stack facts included (the findings check); `rows` leaves out the stack
  // facts (the memo key). Analyze and the memo lookup both call this, so the
  // two can never disagree.
  void ImportSignatures(const std::string& importer, const std::set<std::string>& defined,
                        const std::set<std::string>& externs, std::string* full,
                        std::string* rows) const;
  // Function name -> definers/referencers, rebuilt when a name set changed.
  const std::map<std::string, LinkNameUsers>& LinkNames();

  // The link memo. ServeFromMemo marks clean every dirty module whose memo
  // key hits and returns the entries; the rest go through the round step.
  // StepAndPublish runs the step, then publishes its exports (memoizing
  // them) and the served entries — or nothing, when the step stops early.
  // At convergence, RebuildStaleFindings re-analyzes, through the step, the
  // modules whose findings predate their current full import signature and
  // sets `dirty` to the importers of any row that moved (none, unless the
  // memo broke its contract). Both return false when the step stopped
  // early.
  using MemoHits = std::vector<std::pair<std::string, const MemoEntry*>>;
  MemoHits ServeFromMemo();
  bool StepAndPublish(const RoundStep& step, const MemoHits& served, LinkDelta* delta,
                      std::string* err);
  bool RebuildStaleFindings(const RoundStep& step, std::set<std::string>* dirty,
                            std::string* err);
  void PruneLinkMemos();
  int64_t LinkMemoBytes() const;

  // Store plumbing (session_store.cc). BuildStoreSnapshot serializes the
  // whole session; ImportStoreRecord restores one module's persisted state
  // (warm starts and the distributed step share it — the step imports
  // worker records instead of analyzing). It keeps the module's link memo;
  // LoadStore drops every memo.
  StoreFile BuildStoreSnapshot(bool linked, bool converged) const;
  bool ImportStoreRecord(StoreModule&& rec, std::string* err);
  // Rebuilds a module's exported summary rows from its last analysis.
  std::vector<FuncSummary> ExtractSummaries(const std::string& name, ModuleState& st) const;
  // Corpus-level stack facts over the current table (condensation of the
  // exported call edges; cross-module cyclic SCC members marked recursive).
  void ComputeLinkStackFacts(LinkDelta* delta);
  // Whether the rows `delta` touched can move any stack fact; when not, the
  // round skips ComputeLinkStackFacts.
  bool StackInputsChanged(const LinkDelta& delta) const;
  void SetLinkStackFacts(std::pair<const LinkRowKey, LinkRowState>* entry, int64_t stack_below,
                         bool cross_recursive, LinkDelta* delta);
  // Modules transitively connected to `roots` through shared function names
  // (in either import direction), per the last exported name sets.
  std::set<std::string> LinkedComponentOf(const std::set<std::string>& roots);

  Pipeline pipeline_;
  FrontendCache cache_;
  // shared_ptr, not a member atomic: the session stays movable, and
  // RequestCancel() from another thread races only with the atomic load,
  // never with the pointer (which changes only under single-threaded moves).
  std::shared_ptr<std::atomic<bool>> cancel_;
  std::unique_ptr<WorkQueue> pool_;
  // std::map: sorted iteration is what makes every merge order-independent
  // of registration order. Node stability also keeps ModuleState addresses
  // (and the link seeds the contexts point at) valid across inserts.
  std::map<std::string, std::unique_ptr<ModuleState>> modules_;
  // The link stage's fact table and its outcome counters. The table holds
  // only summary rows; per-module facts/findings stay with the modules and
  // are merged on ExportAnnoDb().
  AnnoDb link_table_;
  std::map<LinkRowKey, LinkRowState> link_rows_;
  std::map<std::string, LinkNameUsers> link_names_;
  bool link_names_stale_ = true;
  bool linked_ever_ = false;
  uint64_t link_runs_ = 0;  // link fixpoint runs, for memo pruning
  LinkStats link_stats_;
  // Function names defined in more than one module (a merged-source corpus
  // would reject them); surfaced as session findings by RunLinked.
  std::set<std::string> link_conflicts_;
  // Modules whose findings rebuild exported rows other than the memo's;
  // surfaced as session findings (the memo's exactness is checked, not
  // assumed).
  std::set<std::string> memo_mismatches_;
};

}  // namespace ivy

#endif  // SRC_TOOL_SESSION_H_
