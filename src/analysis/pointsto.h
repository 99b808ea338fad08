// Whole-program points-to analysis for function pointers (§2.3).
//
// BlockStop's call graph "must account for calls through function pointers;
// we use a whole-program points-to analysis to determine which functions a
// given pointer could refer to." This is an inclusion-based (Andersen-style),
// field-based analysis: every variable and every record field is an abstract
// cell, function constants flow through assignment/parameter/return edges,
// and indirect call sites are resolved on the fly (newly discovered callees
// add their parameter/return bindings until a fixpoint).
//
// The `field_sensitive` switch is the paper's precision story: the simple
// (field-insensitive) variant merges all fields of a record into one cell,
// which is what produces BlockStop's false positives ("mostly due to the
// overly-conservative points-to analysis of function pointers"); the
// field-sensitive variant is the improvement the paper proposes (A2).
#ifndef SRC_ANALYSIS_POINTSTO_H_
#define SRC_ANALYSIS_POINTSTO_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/mc/ast.h"
#include "src/mc/sema.h"

namespace ivy {

// Cross-module link seeds: function names known (from another module's
// summaries) to flow into a parameter cell ((function, param index)) or a
// return cell ((function, -1)). Names that resolve to nothing in this
// compilation (not even an extern declaration) are dropped — a repository
// consumer that wants those facts must declare the functions it imports.
using PointsToLinkSeeds = std::map<std::pair<std::string, int>, std::set<std::string>>;

class PointsTo {
 public:
  PointsTo(const Program* prog, const Sema* sema, bool field_sensitive);

  // Cross-module import: seeds the named parameter/return cells before the
  // fixpoint runs (AnalysisSession's link stage). Must be called before
  // Solve(); `seeds` must outlive it.
  void SetLinkSeeds(const PointsToLinkSeeds* seeds);

  // Builds constraints from every function body and solves to fixpoint.
  void Solve();

  // Candidate callees of an indirect call expression (kCall whose callee is
  // not a direct function name). Empty if the site was never seen.
  const std::vector<const FuncDecl*>& TargetsOf(const Expr* call) const;

  // Candidate handlers of trigger_irq(h, ...) sites, by the handler expr.
  const std::vector<const FuncDecl*>& HandlerTargets(const Expr* handler_expr) const;

  // Functions whose address is ever taken (flow into some cell).
  const std::set<const FuncDecl*>& address_taken() const { return address_taken_; }

  // Post-solve cell reads for the link-stage summary export: the sorted
  // function names in a parameter cell ((fn, index)) or return cell
  // ((fn, -1)). Empty if the cell was never materialized.
  std::vector<std::string> FuncNamesInCell(const FuncDecl* fn, int slot) const;

  int node_count() const { return static_cast<int>(node_funcs_.size()); }
  int64_t solve_iterations() const { return iterations_; }
  // Successful fact insertions along edges during the solve fixpoint — the
  // facts the solver derived. Generated and link-seeded facts are excluded,
  // and so are indirect-site bindings.
  int64_t solve_propagations() const { return propagations_; }

 private:
  int NewNode();
  int VarNode(const Symbol* sym);
  int FieldNode(const RecordDecl* rec, int field_index);
  int RetNode(const FuncDecl* fn);
  int NodeOfExpr(const Expr* e);
  void AddEdge(int src, int dst);
  void AddFunc(int node, const FuncDecl* fn);
  // Flows the value of `rhs` into `dst` (a node id).
  void FlowInto(const Expr* rhs, int dst);
  void GenStmt(const Stmt* s);
  void GenExpr(const Expr* e);
  void GenCall(const Expr* e);
  const FuncDecl* AsFunctionName(const Expr* e) const;

  const Program* prog_;
  const Sema* sema_;
  bool field_sensitive_;
  const FuncDecl* cur_fn_ = nullptr;

  std::unordered_map<const Symbol*, int> var_nodes_;
  std::map<std::pair<const RecordDecl*, int>, int> field_nodes_;
  std::unordered_map<const FuncDecl*, int> ret_nodes_;
  std::vector<std::set<int>> node_funcs_;       // node -> set of func ids
  std::vector<std::vector<int>> edges_;         // node -> successor nodes
  std::vector<const FuncDecl*> funcs_by_id_;

  struct IndirectSite {
    const Expr* call = nullptr;         // the kCall expr (or handler expr)
    int callee_node = -1;
    std::vector<const Expr*> args;      // for param binding
    int ret_node = -1;                  // results flow here
    std::set<int> bound;                // func ids already bound
  };
  std::vector<IndirectSite> sites_;
  std::map<const Expr*, int> site_of_expr_;
  std::map<const Expr*, std::vector<const FuncDecl*>> resolved_;
  std::set<const FuncDecl*> address_taken_;
  int64_t iterations_ = 0;
  int64_t propagations_ = 0;
  const PointsToLinkSeeds* link_seeds_ = nullptr;
  std::vector<const FuncDecl*> empty_;
};

}  // namespace ivy

#endif  // SRC_ANALYSIS_POINTSTO_H_
