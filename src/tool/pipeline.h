// The unified tool pipeline (the driver redesign): a fluent PipelineBuilder
// configures which passes run and with what options, Pipeline::Compile runs
// the frontend (lex/parse/sema/lower — what the old free Compile() did), and
// Pipeline::RunTools schedules every configured pass over one shared
// AnalysisContext. Passes that declared their analyses via Requires() run in
// parallel (std::async) — results are still merged in request order, so
// parallel and serial runs produce byte-identical finding lists.
//
// Corpus scale lives one layer up: PipelineBuilder::ForEachModule(...) +
// BuildSession() produce an AnalysisSession (src/tool/session.h) that runs
// this pipeline over N named modules with one shared worker pool, reused
// prelude tokens, and incremental re-analysis. CompileAndRun is itself a
// thin shim over a single-module session, so every driver goes through the
// same path.
//
// The old entry points survive as shims: Compile()/CompileOne() in
// src/driver/compiler.h delegate here, and the flat ToolConfig maps onto a
// builder via PipelineBuilder::FromToolConfig.
#ifndef SRC_TOOL_PIPELINE_H_
#define SRC_TOOL_PIPELINE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/driver/compiler.h"
#include "src/mc/token.h"
#include "src/tool/analysis_context.h"
#include "src/tool/finding.h"
#include "src/tool/tool_pass.h"

namespace ivy {

class AnalysisSession;

// One named corpus member: what AnalysisSession compiles and analyzes as a
// unit. Names are the provenance key (Finding::module) and must be unique
// within a session.
struct ModuleSources {
  std::string name;
  std::vector<SourceFile> files;
};

// Frontend artifacts shared across the compilations of a corpus. The
// prelude's token stream is identical for every module (always the first
// file registered, so even the embedded file ids match); lexing it once and
// re-parsing from the cached tokens is the "reuse prelude parse results"
// half of batched compilation. The counter exists for tests.
struct FrontendCache {
  std::shared_ptr<std::vector<Token>> prelude_tokens;
  int64_t prelude_reuses = 0;
  // Interned prelude strings, snapshotted after the first module's prelude
  // parse and seeded into every later module's interner (same ids, one copy
  // of the bytes).
  std::shared_ptr<const InternSnapshot> prelude_interns;
  int64_t intern_seeds = 0;
};

// Merged output of one RunTools call. `results` holds one entry per
// configured pass in request order; `findings` is the concatenation of every
// pass's findings in that same order (the deterministic merge).
struct PipelineResult {
  std::vector<ToolResult> results;
  std::vector<Finding> findings;
  bool parallel = false;
  int pointsto_builds = 0;   // snapshot of the context counters after the run
  int callgraph_builds = 0;

  const ToolResult* ResultFor(const std::string& tool) const;
  int ErrorCount() const;

  Json ToJson(const SourceManager* sm = nullptr) const;
  std::string ToString(const SourceManager* sm = nullptr) const;
};

// A compiled program together with the pipeline artifacts that analyzed it.
struct PipelineRun {
  std::unique_ptr<Compilation> comp;
  std::unique_ptr<AnalysisContext> ctx;  // declared after comp: destroyed first
  PipelineResult result;
};

class Pipeline {
 public:
  // Frontend only: source -> Compilation (never null; check ->ok). With a
  // FrontendCache, the prelude token stream is lexed once and reused across
  // calls (what AnalysisSession passes for corpus builds).
  std::unique_ptr<Compilation> Compile(const std::vector<SourceFile>& files,
                                       FrontendCache* cache = nullptr) const;

  // Context at this pipeline's configured points-to precision. Prefer this
  // over constructing AnalysisContext directly so FieldSensitive() cannot
  // silently diverge from the context the tools actually run against.
  std::unique_ptr<AnalysisContext> MakeContext(Compilation* comp) const;

  // Runs every configured pass over `ctx`. Unknown tool names become
  // severity-error findings attributed to tool "pipeline".
  PipelineResult RunTools(AnalysisContext& ctx) const;

  // Compile + analyze in one step. If compilation fails, `result` is empty
  // and `ctx` is null. Implemented as a single-module AnalysisSession (see
  // src/tool/session.cc), so one-shot runs and corpus runs share one code
  // path.
  PipelineRun CompileAndRun(const std::vector<SourceFile>& files) const;

  // The schedule RunTools would execute: required analyses first (in
  // dependency order, each exactly once), then the passes in request order.
  // Entries look like "analysis:callgraph" and "pass:blockstop".
  std::vector<std::string> Plan() const;

  const ToolConfig& config() const { return config_; }
  const std::vector<std::string>& tools() const { return tools_; }
  const std::map<std::string, ToolOptions>& tool_options() const { return options_; }
  bool parallel() const { return parallel_; }
  bool field_sensitive() const { return field_sensitive_; }
  int shard_functions() const { return shards_; }

 private:
  friend class PipelineBuilder;

  ToolConfig config_;                 // frontend + VM knobs (legacy bag)
  std::vector<std::string> tools_;    // pass names, request order
  std::map<std::string, ToolOptions> options_;
  bool parallel_ = true;
  bool field_sensitive_ = true;
  int shards_ = 1;                    // per-function shards (0 = hardware)
};

class PipelineBuilder {
 public:
  // Enables a pass by registry name (deduplicated; first request wins the
  // position, later options replace earlier ones).
  PipelineBuilder& Tool(const std::string& name);
  PipelineBuilder& Tool(const std::string& name, ToolOptions opts);
  // Every registered pass, in sorted-name order.
  PipelineBuilder& AllTools();

  // Schedules VM workload functions as the dynamic "workload" pass: each
  // spec is "fn" or "fn:arg:arg..." and runs in its own bytecode VM (over
  // one shared compiled image) on the pipeline's worker pool; `boot` is an
  // optional spec executed first in every workload VM (e.g.
  // "boot_kernel:5"). Traps, might-sleep violations, and CCount bad frees
  // observed by the runs become findings — stamped with module provenance
  // by sessions, like any static pass's.
  PipelineBuilder& RunWorkload(const std::vector<std::string>& fns,
                               const std::string& boot = std::string());

  PipelineBuilder& Parallel(bool on);
  PipelineBuilder& FieldSensitive(bool on);

  // Per-function sharding inside the four fixpoint passes (blockstop,
  // locksafe, stackcheck, errcheck), which always run their sharded kernel:
  // `n` sets only the shard count. `n == 1` (the default) runs each kernel's
  // one chunk on the calling thread with no worker pool, `n == 0` means
  // hardware concurrency. Findings are byte-identical for any value — the
  // sharding layer merges in function-declaration order. Reaches the passes
  // as the "shards" ToolOptions key; a per-tool option set explicitly via
  // Tool(name, opts) wins over this pipeline-wide value.
  PipelineBuilder& ShardFunctions(int n);

  // Frontend / VM knobs (the surviving ToolConfig fields).
  PipelineBuilder& Deputy(bool on);
  PipelineBuilder& Discharge(bool on);
  PipelineBuilder& CCount(bool on);
  PipelineBuilder& Smp(bool on);
  PipelineBuilder& TrackLocals(bool on);
  PipelineBuilder& RcWidthBits(int bits);
  PipelineBuilder& IncludePrelude(bool on);

  // Maps the legacy flat config onto a builder (the Compile() shim).
  static PipelineBuilder FromToolConfig(const ToolConfig& config);

  // Corpus mode: registers named modules for BuildSession(). One builder
  // call then compiles every module (reusing prelude tokens) and schedules
  // the configured passes across the whole corpus; the session's merged
  // findings are byte-identical regardless of module registration order or
  // shard count. Appends to any modules registered earlier; duplicate names
  // replace the earlier sources.
  PipelineBuilder& ForEachModule(std::vector<ModuleSources> modules);

  // Builds a long-lived AnalysisSession over the configured pipeline and
  // the ForEachModule corpus (possibly empty — AddModule later). Defined in
  // src/tool/session.cc.
  AnalysisSession BuildSession() const;

  Pipeline Build() const { return pipeline_; }

 private:
  Pipeline pipeline_;
  std::vector<ModuleSources> modules_;
};

}  // namespace ivy

#endif  // SRC_TOOL_PIPELINE_H_
