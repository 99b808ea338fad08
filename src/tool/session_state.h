// AnalysisSession's per-module state — split out of session.cc so the
// persistent-store half of the session (session_store.cc: SaveStore /
// LoadStore / distributed relink) can share it. Private to the session
// implementation; nothing outside src/tool should include this.
#ifndef SRC_TOOL_SESSION_STATE_H_
#define SRC_TOOL_SESSION_STATE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/tool/session.h"

namespace ivy {

// One exported summary row plus its canonical binary encoding without the
// link-stage stack facts (FuncSummary::Encode), computed once when the row
// enters the table. The diff and the import signatures compare these bytes.
// Immutable, so the session's row index and the modules' link memos share it
// instead of copying. The stack facts live beside it (LinkRowState).
struct AnalysisSession::LinkRow {
  explicit LinkRow(FuncSummary r) : row(std::move(r)) {
    row.stack_below = -1;
    row.cross_recursive = false;
    core = row.Encode();
  }
  FuncSummary row;
  std::string core;
};

// The rows one analysis exported, memoized under its row-relevant import
// signature. `relink` is the last RunLinked() that produced or served it.
struct AnalysisSession::MemoEntry {
  std::vector<LinkRowPtr> rows;
  uint64_t relink = 0;
};

// An error finding the session itself reports (tool "session").
inline Finding SessionError(std::string message, std::string module = std::string()) {
  Finding f;
  f.tool = "session";
  f.severity = FindingSeverity::kError;
  f.module = std::move(module);
  f.message = std::move(message);
  return f;
}

struct AnalysisSession::ModuleState {
  std::vector<SourceFile> files;
  bool dirty = true;
  bool ok = false;
  bool analyzed_now = false;  // re-analyzed during the current Run()
  std::string compile_errors;

  // Link stage. `import_sig` is the full import signature of the last
  // analysis (AnalysisSession::ImportSignatures): the findings check
  // compares it with the converged table's. `memo_key` is the same
  // analysis' row-relevant signature. `link_seeds` is the storage the
  // context's points-to solve reads the imported escape facts from.
  std::string import_sig;
  std::string memo_key;
  PointsToLinkSeeds link_seeds;
  // Name sets from the last analysis: what this module defines and which
  // extern functions it references — the cross-module edge structure.
  // `link_names_changed` tells the session's name index to rebuild.
  bool have_link_names = false;
  bool link_names_changed = false;
  std::set<std::string> defined_names;
  std::set<std::string> extern_refs;
  // Early-cutoff memo: row-relevant import signature -> the rows an
  // analysis of the current sources exported under it. Dropped whenever the
  // sources change.
  std::map<std::string, MemoEntry> memo;

  ModuleStats stats;

  // Declaration order matters: `ctx` points into `link_seeds` and `comp`,
  // so it must be destroyed first.
  std::unique_ptr<Compilation> comp;
  std::unique_ptr<AnalysisContext> ctx;
  PipelineResult result;
};

}  // namespace ivy

#endif  // SRC_TOOL_SESSION_STATE_H_
