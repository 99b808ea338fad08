// StackCheck (§3.1, second future analysis): "the call graph built for
// BlockStop can be used to prevent stack overflow. Given a sound call graph
// and information about the size of each stack frame, as in the Capriccio
// thread package, we can ensure that every possible chain of function calls
// stays within its allotted 4 or 8 kB of stack space. ... For recursive
// calls, run-time checks will be needed."
//
// Frame sizes come from lowering (IrFunc::frame_size). The call graph is
// condensed into strongly connected components first (iterative Tarjan over
// DefinedFuncs() order — deterministic); the worst-case depth is the longest
// path in the condensation DAG, where an SCC's weight is the sum of its
// members' frames (each cycle's frames counted once — the static bound is
// advisory there anyway, because functions on cycles cannot be bounded
// statically and are reported as needing the run-time check, the VM's
// kCheckStack trap).
//
// The condensation is what makes the analysis shardable: per-entry depths
// are pure functions of the DAG, so Run(entries, sharder, wq) computes them
// in parallel shards (each with a private memo) and reduces in shard order —
// byte-identical to the serial Run(entries).
#ifndef SRC_STACKCHECK_STACKCHECK_H_
#define SRC_STACKCHECK_STACKCHECK_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/analysis/callgraph.h"
#include "src/ir/ir.h"
#include "src/tool/finding.h"

namespace ivy {

class FunctionSharder;
class WorkQueue;

struct StackCheckReport {
  // Worst-case stack bytes per entry point (conservative over all paths).
  std::map<std::string, int64_t> entry_depths;
  // Functions participating in recursion: need run-time checks.
  std::set<std::string> recursive;
  int64_t worst_case = 0;
  std::string worst_entry;
  int64_t budget = 8192;  // the paper's 4 or 8 kB
  bool fits_budget = false;

  std::string ToString() const;

  // Unified-pipeline view: a budget overrun is an error (witness = the worst
  // entry point), each recursive function a warning (needs the run-time
  // kCheckStack trap, as the paper prescribes).
  std::vector<Finding> ToFindings() const;
};

class StackCheck {
 public:
  StackCheck(const CallGraph* cg, const IrModule* module, int64_t budget = 8192);

  // Analyzes the given entry points (default: every defined function is a
  // potential kernel entry; syscalls and IRQ handlers are reported first).
  // Serial reference implementation (the test oracle).
  StackCheckReport Run(const std::vector<std::string>& entries);

  // The production depth search: entry points are partitioned by `sharder`
  // and solved on `wq` (null for a one-shard sharder), each shard with a
  // private memo over the condensation DAG. Byte-identical report to the
  // serial Run().
  StackCheckReport Run(const std::vector<std::string>& entries,
                       const FunctionSharder& sharder, WorkQueue* wq);

 private:
  // Builds the SCC condensation (idempotent; called by both Run flavors).
  void Prepare();
  // Longest path from `scc` through the condensation; memo is caller-owned
  // so parallel shards never share mutable state. An SCC on a cross-module
  // cycle answers with the link stage's corpus-level depth (the local
  // condensation cannot see the rest of the cycle, and stacking the local
  // weight on top of the imported subtree depth would double-count it) —
  // roots and intermediate callers alike.
  int64_t DepthOfScc(int scc, std::vector<int64_t>* memo) const;
  std::vector<const FuncDecl*> ResolveRoots(const std::vector<std::string>& entries) const;
  StackCheckReport Reduce(const std::vector<const FuncDecl*>& roots,
                          const std::vector<int64_t>& root_depths) const;

  const CallGraph* cg_;
  const IrModule* module_;
  int64_t budget_;

  // Condensation, valid after Prepare().
  bool prepared_ = false;
  std::map<const FuncDecl*, int> func_index_;
  std::vector<int> scc_of_;                 // function index -> scc id
  std::vector<int64_t> scc_weight_;         // sum of member frame sizes
  std::vector<uint8_t> scc_cyclic_;         // size > 1 or self-loop
  // Max imported subtree depth (attrs.stack_below) over the members' calls
  // into extern-declared functions — the consumed half of the link summary.
  std::vector<int64_t> scc_extern_extra_;
  // Corpus-level depth override for SCCs whose members sit on a
  // cross-module cycle (-1 = none); see DepthOfScc.
  std::vector<int64_t> scc_link_depth_;
  std::vector<std::vector<int>> scc_succs_; // deduped, ascending
  std::vector<std::vector<int>> scc_members_;  // function indices, ascending
};

}  // namespace ivy

#endif  // SRC_STACKCHECK_STACKCHECK_H_
