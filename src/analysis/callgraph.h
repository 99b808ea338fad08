// Whole-program call graph (§2.3): direct calls, builtin calls, and
// indirect calls resolved by the points-to analysis. "Once we know which
// functions can be called where, we can begin to analyze important
// control-flow properties" — BlockStop, StackCheck and ErrCheck all consume
// this structure.
#ifndef SRC_ANALYSIS_CALLGRAPH_H_
#define SRC_ANALYSIS_CALLGRAPH_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/analysis/pointsto.h"
#include "src/mc/ast.h"
#include "src/mc/sema.h"

namespace ivy {

struct CallSite {
  const Expr* expr = nullptr;
  SourceLoc loc;
  const FuncDecl* caller = nullptr;
  const FuncDecl* direct = nullptr;   // defined Mini-C callee
  const FuncDecl* builtin = nullptr;  // builtin callee (declaration)
  std::vector<const FuncDecl*> indirect;  // candidates for fn-ptr calls
  bool is_irq_dispatch = false;       // trigger_irq(handler, ...)

  // All Mini-C functions this site may enter.
  std::vector<const FuncDecl*> McCallees() const {
    std::vector<const FuncDecl*> out = indirect;
    if (direct != nullptr) {
      out.push_back(direct);
    }
    return out;
  }
};

class CallGraph {
 public:
  static CallGraph Build(const Program& prog, const Sema& sema, const PointsTo& pt);

  const std::vector<CallSite>& SitesOf(const FuncDecl* fn) const;
  const std::vector<const FuncDecl*>& DefinedFuncs() const { return defined_; }
  // Unique Mini-C callees of `fn` (through any site).
  std::set<const FuncDecl*> Callees(const FuncDecl* fn) const;
  // Reverse adjacency: every defined function with a site (direct or
  // indirect, irq dispatch included) that may enter `fn`. Deterministic:
  // callers appear in DefinedFuncs() order, each once. Worklist solvers
  // (e.g. BlockStop's sharded may-block propagation) use this to rescan only
  // the callers of functions whose facts changed last round.
  const std::vector<const FuncDecl*>& CallersOf(const FuncDecl* fn) const;

  int64_t edge_count() const { return edges_; }
  int64_t indirect_site_count() const { return indirect_sites_; }
  // Total candidate count across indirect sites (precision metric, A2).
  int64_t indirect_target_total() const { return indirect_targets_; }

  // Functions entered with interrupts disabled (trigger_irq targets and
  // `interrupt_handler`-annotated functions).
  const std::set<const FuncDecl*>& irq_entries() const { return irq_entries_; }

 private:
  void Walk(const FuncDecl* caller, const Stmt* s, const Sema& sema, const PointsTo& pt);
  void WalkExpr(const FuncDecl* caller, const Expr* e, const Sema& sema, const PointsTo& pt);

  std::map<const FuncDecl*, std::vector<CallSite>> sites_;
  std::map<const FuncDecl*, std::vector<const FuncDecl*>> callers_;
  std::vector<const FuncDecl*> defined_;
  std::vector<const FuncDecl*> empty_funcs_;
  std::set<const FuncDecl*> irq_entries_;
  int64_t edges_ = 0;
  int64_t indirect_sites_ = 0;
  int64_t indirect_targets_ = 0;
  std::vector<CallSite> empty_;
};

}  // namespace ivy

#endif  // SRC_ANALYSIS_CALLGRAPH_H_
