#include "src/errcheck/errcheck.h"

#include "src/tool/function_sharder.h"

namespace ivy {

ErrCheck::ErrCheck(const Program* prog, const Sema* sema, const CallGraph* cg)
    : prog_(prog), sema_(sema), cg_(cg) {}

void ErrCheck::ClassifyImported() {
  for (const auto& [name, fn] : sema_->func_map()) {
    (void)name;
    if (fn->body == nullptr && !fn->is_builtin && fn->attrs.returns_error) {
      err_funcs_.insert(fn);
    }
  }
}

bool ErrCheck::ReturnsNegativeConstant(const Stmt* s) const {
  if (s == nullptr) {
    return false;
  }
  if (s->kind == StmtKind::kReturn && s->expr != nullptr && s->expr->is_const &&
      s->expr->int_val < 0) {
    return true;
  }
  if (ReturnsNegativeConstant(s->init) || ReturnsNegativeConstant(s->then_stmt) ||
      ReturnsNegativeConstant(s->else_stmt)) {
    return true;
  }
  for (const Stmt* child : s->body) {
    if (ReturnsNegativeConstant(child)) {
      return true;
    }
  }
  return false;
}

bool ErrCheck::ExprMentions(const Expr* e, const Symbol* sym) {
  if (e == nullptr) {
    return false;
  }
  if (e->kind == ExprKind::kIdent && e->sym == sym) {
    return true;
  }
  if (ExprMentions(e->a, sym) || ExprMentions(e->b, sym) || ExprMentions(e->c, sym)) {
    return true;
  }
  for (const Expr* arg : e->args) {
    if (ExprMentions(arg, sym)) {
      return true;
    }
  }
  return false;
}

bool ErrCheck::SymTestedIn(const Stmt* s, const Symbol* sym) {
  if (s == nullptr) {
    return false;
  }
  if (s->cond != nullptr && ExprMentions(s->cond, sym)) {
    return true;
  }
  // A return propagating the value counts as handled (the caller checks).
  if (s->kind == StmtKind::kReturn && s->expr != nullptr && ExprMentions(s->expr, sym)) {
    return true;
  }
  if (SymTestedIn(s->init, sym) || SymTestedIn(s->then_stmt, sym) ||
      SymTestedIn(s->else_stmt, sym)) {
    return true;
  }
  for (const Stmt* child : s->body) {
    if (SymTestedIn(child, sym)) {
      return true;
    }
  }
  return false;
}

void ErrCheck::ScanStmt(const FuncDecl* fn, const Stmt* s, const Stmt* func_body,
                        ErrCheckReport* report) {
  if (s == nullptr) {
    return;
  }
  auto callee_of = [this](const Expr* e) -> const FuncDecl* {
    if (e == nullptr || e->kind != ExprKind::kCall || e->a->kind != ExprKind::kIdent) {
      return nullptr;
    }
    auto it = sema_->func_map().find(e->a->str_val);
    if (it == sema_->func_map().end() || !IsErrFunc(it->second)) {
      return nullptr;
    }
    return it->second;
  };
  // Case 1: bare expression statement discarding an error-returning call.
  if (s->kind == StmtKind::kExpr) {
    if (const FuncDecl* callee = callee_of(s->expr)) {
      report->findings.push_back(
          ErrCheckFinding{s->expr->loc, fn->name, callee->name, "discarded"});
    } else if (s->expr != nullptr && s->expr->kind == ExprKind::kAssign) {
      // Case 2: result assigned but the variable never tested afterwards.
      if (const FuncDecl* assigned = callee_of(s->expr->b)) {
        const Expr* lhs = s->expr->a;
        if (lhs->kind == ExprKind::kIdent && lhs->sym != nullptr &&
            !SymTestedIn(func_body, lhs->sym)) {
          report->findings.push_back(
              ErrCheckFinding{s->expr->loc, fn->name, assigned->name, "never-tested"});
        } else {
          ++report->checked_sites;
        }
      }
    }
  }
  // Case 3: declaration with an error-returning initializer.
  if (s->kind == StmtKind::kDecl && s->decl != nullptr) {
    if (const FuncDecl* callee = callee_of(s->decl->init)) {
      if (s->decl->sym != nullptr && !SymTestedIn(func_body, s->decl->sym)) {
        report->findings.push_back(
            ErrCheckFinding{s->decl->loc, fn->name, callee->name, "never-tested"});
      } else {
        ++report->checked_sites;
      }
    }
  }
  // Results consumed directly by conditions count as checked.
  if (s->cond != nullptr && s->cond->kind == ExprKind::kCall && callee_of(s->cond) != nullptr) {
    ++report->checked_sites;
  }
  ScanStmt(fn, s->init, func_body, report);
  ScanStmt(fn, s->then_stmt, func_body, report);
  ScanStmt(fn, s->else_stmt, func_body, report);
  for (const Stmt* child : s->body) {
    ScanStmt(fn, child, func_body, report);
  }
}

ErrCheckReport ErrCheck::Run() {
  ErrCheckReport report;
  for (const FuncDecl* fn : cg_->DefinedFuncs()) {
    if (!fn->attrs.errcodes.empty()) {
      err_funcs_.insert(fn);
      ++report.annotated_funcs;
    } else if (fn->type != nullptr && fn->type->ret != nullptr && fn->type->ret->IsInteger() &&
               ReturnsNegativeConstant(fn->body)) {
      err_funcs_.insert(fn);
      ++report.inferred_funcs;
    }
  }
  for (const FuncDecl* fn : err_funcs_) {
    report.err_funcs.insert(fn->name);
  }
  ClassifyImported();
  report.err_returning_funcs = static_cast<int>(err_funcs_.size());
  for (const FuncDecl* fn : cg_->DefinedFuncs()) {
    ScanStmt(fn, fn->body, fn->body, &report);
  }
  return report;
}

ErrCheckReport ErrCheck::Run(const FunctionSharder& sharder, WorkQueue* wq) {
  ErrCheckReport report;
  const std::vector<const FuncDecl*>& funcs = sharder.functions();

  // Phase 1: classify error-returning functions. Pure per function (attrs +
  // own body), merged in shard order so the counters match the serial loop.
  struct Classified {
    size_t idx;
    bool annotated;
  };
  std::vector<std::vector<Classified>> classified = sharder.MapChunks<Classified>(
      wq, funcs.size(), [this, &funcs](int, size_t begin, size_t end) {
        std::vector<Classified> out;
        for (size_t i = begin; i < end; ++i) {
          const FuncDecl* fn = funcs[i];
          if (!fn->attrs.errcodes.empty()) {
            out.push_back({i, true});
          } else if (fn->type != nullptr && fn->type->ret != nullptr &&
                     fn->type->ret->IsInteger() && ReturnsNegativeConstant(fn->body)) {
            out.push_back({i, false});
          }
        }
        return out;
      });
  for (const std::vector<Classified>& chunk : classified) {
    for (const Classified& c : chunk) {
      err_funcs_.insert(funcs[c.idx]);
      if (c.annotated) {
        ++report.annotated_funcs;
      } else {
        ++report.inferred_funcs;
      }
    }
  }
  for (const FuncDecl* fn : err_funcs_) {
    report.err_funcs.insert(fn->name);
  }
  ClassifyImported();
  report.err_returning_funcs = static_cast<int>(err_funcs_.size());

  // Phase 2: per-function call-site scans against the now-frozen err set
  // (read-only from here), flattened in shard order — the serial finding
  // order is function-declaration order, and so is this.
  std::vector<std::vector<ErrCheckReport>> scans = sharder.MapChunks<ErrCheckReport>(
      wq, funcs.size(), [this, &funcs](int, size_t begin, size_t end) {
        ErrCheckReport local;
        for (size_t i = begin; i < end; ++i) {
          ScanStmt(funcs[i], funcs[i]->body, funcs[i]->body, &local);
        }
        return std::vector<ErrCheckReport>{std::move(local)};
      });
  for (std::vector<ErrCheckReport>& chunk : scans) {
    for (ErrCheckReport& local : chunk) {
      report.findings.insert(report.findings.end(), local.findings.begin(),
                             local.findings.end());
      report.checked_sites += local.checked_sites;
    }
  }
  return report;
}

std::string ErrCheckReport::ToString() const {
  std::string out = "ErrCheck: " + std::to_string(err_returning_funcs) +
                    " error-returning functions (" + std::to_string(annotated_funcs) +
                    " annotated with errcode(), " + std::to_string(inferred_funcs) +
                    " inferred from negative constant returns)\n";
  out += "  call sites that test the result: " + std::to_string(checked_sites) + "\n";
  out += "  unchecked error results: " + std::to_string(findings.size()) + "\n";
  for (const ErrCheckFinding& f : findings) {
    out += "    [" + f.kind + "] " + f.caller + " ignores result of " + f.callee + "\n";
  }
  return out;
}

std::vector<Finding> ErrCheckReport::ToFindings() const {
  std::vector<Finding> out;
  for (const ErrCheckFinding& e : findings) {
    Finding f;
    f.tool = "errcheck";
    f.severity = FindingSeverity::kWarning;
    f.loc = e.loc;
    f.message = "error code from '" + e.callee + "' is " + e.kind;
    f.witness = {e.caller, e.callee};
    out.push_back(std::move(f));
  }
  return out;
}

}  // namespace ivy
