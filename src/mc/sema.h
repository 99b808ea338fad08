// Semantic analysis for Mini-C: record layout, name resolution, type
// checking, Deputy annotation resolution, and trusted-region tracking.
//
// Sema enforces the Deputy typing rules the paper describes in §2.1:
// annotations are *untrusted* (they are only well-formedness-checked here;
// their truth is enforced by static discharge + run-time checks), illegal
// idioms (cross-record casts, unguarded union access, int-to-pointer
// forging) are errors unless the code is marked trusted, and trusted code is
// counted so the E1 statistics can report the annotation burden.
#ifndef SRC_MC_SEMA_H_
#define SRC_MC_SEMA_H_

#include <functional>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/mc/ast.h"
#include "src/support/diag.h"

namespace ivy {

// Maps a bodyless function name to a VM builtin id, or -1 if unknown.
using BuiltinResolver = std::function<int(const std::string&)>;

// Aggregate statistics sema gathers for the E1 experiment.
struct SemaStats {
  int annotation_sites = 0;          // count/bound/nullterm/opt/when/blocking/...
  std::set<std::pair<int, int>> annotated_lines;  // (file, line) with any annotation
  std::set<std::pair<int, int>> trusted_lines;    // (file, line) inside trusted code
  int trusted_casts = 0;
  int trusted_blocks = 0;
  int trusted_funcs = 0;
};

class Sema {
 public:
  Sema(Program* prog, DiagEngine* diags, BuiltinResolver builtins);

  // Runs all checks. Returns true if the program is legal (no errors).
  bool Run();

  const SemaStats& stats() const { return stats_; }

  // Resolved function table: name -> canonical FuncDecl (definitions win
  // over declarations). Keys view the FuncDecl's own (pool-stable) name, so
  // lookups from interned Expr::str_val need no temporary string.
  const std::unordered_map<std::string_view, FuncDecl*>& func_map() const { return func_map_; }

 private:
  // Layout.
  void AssignTypeIds();
  bool LayoutRecord(RecordDecl* rec, std::vector<RecordDecl*>* in_progress);
  void ResolveFieldAnnotations(RecordDecl* rec);
  // Resolves Idents in a field-scoped annotation expression (count/when on a
  // record field) against the fields of `rec`.
  void ResolveAnnotExprInRecord(Expr* e, RecordDecl* rec);

  // Symbols and scopes.
  void PushScope();
  void PopScope();
  // Scope keys are views of arena-interned spellings or pool-stable Symbol
  // names; both outlive the Sema.
  Symbol* Declare(std::string_view name, Symbol* sym);
  Symbol* Lookup(std::string_view name);

  // Declarations.
  void CollectGlobals();
  void CheckFunction(FuncDecl* fn);
  void CheckAnnotTypeInScope(const Type* t, SourceLoc loc);
  void NoteAnnotations(const Type* t, SourceLoc loc);

  // Statements and expressions.
  void CheckStmt(Stmt* s);
  const Type* CheckExpr(Expr* e);
  const Type* CheckCall(Expr* e);
  const Type* CheckBinary(Expr* e);
  const Type* CheckAssign(Expr* e);
  const Type* CheckMember(Expr* e);
  const Type* CheckCast(Expr* e);
  bool IsLvalue(const Expr* e) const;
  // True if `src` (an expression of type src->type) can initialize/assign a
  // location of type `dst`. Reports a diagnostic at `loc` when not.
  bool CheckCompat(const Type* dst, Expr* src, SourceLoc loc, const char* what);
  bool CompatQuiet(const Type* dst, const Expr* src) const;
  void FoldConst(Expr* e);
  void MarkTrusted(Expr* e);
  void NoteTrustedLines(const Stmt* s);

  Program* prog_;
  DiagEngine* diags_;
  BuiltinResolver builtins_;
  SemaStats stats_;

  std::unordered_map<std::string_view, FuncDecl*> func_map_;
  std::unordered_map<std::string_view, Symbol*> global_scope_;
  std::vector<std::unordered_map<std::string_view, Symbol*>> scopes_;
  FuncDecl* cur_fn_ = nullptr;
  int trusted_depth_ = 0;
  int loop_depth_ = 0;
};

}  // namespace ivy

#endif  // SRC_MC_SEMA_H_
