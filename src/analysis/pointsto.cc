#include "src/analysis/pointsto.h"

#include <algorithm>

namespace ivy {

PointsTo::PointsTo(const Program* prog, const Sema* sema, bool field_sensitive)
    : prog_(prog), sema_(sema), field_sensitive_(field_sensitive) {}

void PointsTo::SetLinkSeeds(const PointsToLinkSeeds* seeds) { link_seeds_ = seeds; }

int PointsTo::NewNode() {
  node_funcs_.emplace_back();
  edges_.emplace_back();
  return static_cast<int>(node_funcs_.size()) - 1;
}

int PointsTo::VarNode(const Symbol* sym) {
  auto [it, inserted] = var_nodes_.emplace(sym, -1);
  if (inserted) {
    it->second = NewNode();
  }
  return it->second;
}

int PointsTo::FieldNode(const RecordDecl* rec, int field_index) {
  int idx = field_sensitive_ ? field_index : -1;
  auto [it, inserted] = field_nodes_.emplace(std::make_pair(rec, idx), -1);
  if (inserted) {
    it->second = NewNode();
  }
  return it->second;
}

int PointsTo::RetNode(const FuncDecl* fn) {
  auto [it, inserted] = ret_nodes_.emplace(fn, -1);
  if (inserted) {
    it->second = NewNode();
  }
  return it->second;
}

const FuncDecl* PointsTo::AsFunctionName(const Expr* e) const {
  if (e == nullptr || e->kind != ExprKind::kIdent || e->sym != nullptr) {
    return nullptr;
  }
  auto it = sema_->func_map().find(e->str_val);
  return it == sema_->func_map().end() ? nullptr : it->second;
}

int PointsTo::NodeOfExpr(const Expr* e) {
  if (e == nullptr) {
    return -1;
  }
  switch (e->kind) {
    case ExprKind::kIdent:
      return e->sym != nullptr ? VarNode(e->sym) : -1;
    case ExprKind::kMember:
      if (e->field != nullptr && e->field_record != nullptr) {
        return FieldNode(e->field_record, e->field->index);
      }
      return -1;
    case ExprKind::kIndex:
      // Arrays collapse to the cell of the array expression itself.
      return NodeOfExpr(e->a);
    case ExprKind::kDeref:
      // `(*fp)(...)` — dereference of a function pointer value.
      return NodeOfExpr(e->a);
    case ExprKind::kCast:
      return NodeOfExpr(e->a);
    default:
      return -1;
  }
}

void PointsTo::AddEdge(int src, int dst) {
  if (src < 0 || dst < 0 || src == dst) {
    return;
  }
  edges_[static_cast<size_t>(src)].push_back(dst);
}

void PointsTo::AddFunc(int node, const FuncDecl* fn) {
  if (node < 0 || fn == nullptr || fn->func_id < 0) {
    return;
  }
  if (static_cast<size_t>(fn->func_id) >= funcs_by_id_.size()) {
    funcs_by_id_.resize(static_cast<size_t>(fn->func_id) + 1, nullptr);
  }
  funcs_by_id_[static_cast<size_t>(fn->func_id)] = fn;
  node_funcs_[static_cast<size_t>(node)].insert(fn->func_id);
  address_taken_.insert(fn);
}

void PointsTo::FlowInto(const Expr* rhs, int dst) {
  if (rhs == nullptr || dst < 0) {
    return;
  }
  const FuncDecl* named = AsFunctionName(rhs);
  if (named != nullptr) {
    AddFunc(dst, named);
    return;
  }
  switch (rhs->kind) {
    case ExprKind::kCond:
      FlowInto(rhs->b, dst);
      FlowInto(rhs->c, dst);
      return;
    case ExprKind::kCast:
      FlowInto(rhs->a, dst);
      return;
    case ExprKind::kAssign:
      FlowInto(rhs->b, dst);  // value of an assignment is its rhs
      return;
    case ExprKind::kCall: {
      const FuncDecl* callee = AsFunctionName(rhs->a);
      if (callee != nullptr) {
        AddEdge(RetNode(callee), dst);
      } else {
        auto site = site_of_expr_.find(rhs);
        if (site != site_of_expr_.end()) {
          AddEdge(sites_[static_cast<size_t>(site->second)].ret_node, dst);
        }
      }
      return;
    }
    default: {
      int src = NodeOfExpr(rhs);
      AddEdge(src, dst);
      return;
    }
  }
}

void PointsTo::GenCall(const Expr* e) {
  const FuncDecl* callee = AsFunctionName(e->a);
  if (callee != nullptr) {
    // Special-case the interrupt dispatcher: its handler argument is an
    // indirect callee with one parameter.
    if (callee->is_builtin && callee->name == "trigger_irq" && !e->args.empty()) {
      IndirectSite site;
      site.call = e->args[0];
      site.callee_node = NodeOfExpr(e->args[0]);
      if (e->args.size() > 1) {
        site.args.push_back(e->args[1]);
      }
      site.ret_node = NewNode();
      site_of_expr_[e->args[0]] = static_cast<int>(sites_.size());
      sites_.push_back(site);
      // The handler reference itself may be a function name.
      if (const FuncDecl* h = AsFunctionName(e->args[0])) {
        int handler_node = site.callee_node;
        if (handler_node < 0) {
          handler_node = NewNode();
        }
        AddFunc(handler_node, h);
        int idx = site_of_expr_[e->args[0]];
        sites_[static_cast<size_t>(idx)].callee_node = handler_node;
      }
      return;
    }
    // Direct call: bind arguments to parameters.
    for (size_t i = 0; i < e->args.size() && i < callee->params.size(); ++i) {
      FlowInto(e->args[i], VarNode(callee->params[i]));
    }
    return;
  }
  // Indirect call site.
  IndirectSite site;
  site.call = e;
  site.callee_node = NodeOfExpr(e->a);
  for (const Expr* a : e->args) {
    site.args.push_back(a);
  }
  site.ret_node = NewNode();
  site_of_expr_[e] = static_cast<int>(sites_.size());
  sites_.push_back(site);
}

void PointsTo::GenExpr(const Expr* e) {
  if (e == nullptr) {
    return;
  }
  if (e->kind == ExprKind::kAssign && e->assign_op == BinOp::kNone) {
    FlowInto(e->b, NodeOfExpr(e->a));
  }
  if (e->kind == ExprKind::kCall) {
    GenCall(e);
  }
  GenExpr(e->a);
  GenExpr(e->b);
  GenExpr(e->c);
  for (const Expr* arg : e->args) {
    GenExpr(arg);
  }
}

void PointsTo::GenStmt(const Stmt* s) {
  if (s == nullptr) {
    return;
  }
  if (s->kind == StmtKind::kDecl && s->decl != nullptr && s->decl->init != nullptr &&
      s->decl->sym != nullptr) {
    FlowInto(s->decl->init, VarNode(s->decl->sym));
  }
  if (s->kind == StmtKind::kReturn && s->expr != nullptr && cur_fn_ != nullptr) {
    FlowInto(s->expr, RetNode(cur_fn_));
  }
  GenExpr(s->expr);
  GenExpr(s->cond);
  GenExpr(s->step);
  if (s->decl != nullptr) {
    GenExpr(s->decl->init);
  }
  GenStmt(s->init);
  GenStmt(s->then_stmt);
  GenStmt(s->else_stmt);
  for (const Stmt* child : s->body) {
    GenStmt(child);
  }
}

void PointsTo::Solve() {
  for (const auto& [name, fn] : sema_->func_map()) {
    if (fn->body == nullptr || fn->func_id < 0) {
      continue;
    }
    cur_fn_ = fn;
    GenStmt(fn->body);
  }
  cur_fn_ = nullptr;
  for (const VarDecl* g : prog_->globals) {
    if (g->init != nullptr && g->sym != nullptr) {
      FlowInto(g->init, VarNode(g->sym));
    }
  }

  // Cross-module link seeds: facts another module proved about parameter and
  // return cells of functions this module shares with it. Applied before the
  // fixpoint so they propagate like any locally-generated fact.
  if (link_seeds_ != nullptr) {
    for (const auto& [cell, names] : *link_seeds_) {
      auto fit = sema_->func_map().find(cell.first);
      if (fit == sema_->func_map().end() || fit->second == nullptr) {
        continue;
      }
      const FuncDecl* fn = fit->second;
      int node = -1;
      if (cell.second < 0) {
        node = RetNode(fn);
      } else if (static_cast<size_t>(cell.second) < fn->params.size()) {
        node = VarNode(fn->params[static_cast<size_t>(cell.second)]);
      }
      if (node < 0) {
        continue;
      }
      for (const std::string& name : names) {
        auto tit = sema_->func_map().find(name);
        if (tit != sema_->func_map().end()) {
          AddFunc(node, tit->second);
        }
      }
    }
  }

  // Fixpoint: propagate function sets along edges; expand indirect sites.
  bool changed = true;
  while (changed) {
    changed = false;
    ++iterations_;
    for (size_t n = 0; n < edges_.size(); ++n) {
      for (int d : edges_[n]) {
        size_t dst = static_cast<size_t>(d);
        for (int f : node_funcs_[n]) {
          if (node_funcs_[dst].insert(f).second) {
            changed = true;
            ++propagations_;
          }
        }
      }
    }
    for (IndirectSite& site : sites_) {
      if (site.callee_node < 0) {
        continue;
      }
      // Copy: binding below creates nodes, which reallocates node_funcs_ and
      // would invalidate a by-reference iteration.
      const std::set<int> fids = node_funcs_[static_cast<size_t>(site.callee_node)];
      for (int fid : fids) {
        if (site.bound.count(fid) != 0) {
          continue;
        }
        site.bound.insert(fid);
        changed = true;
        const FuncDecl* target = funcs_by_id_[static_cast<size_t>(fid)];
        if (target == nullptr) {
          continue;
        }
        for (size_t i = 0; i < site.args.size() && i < target->params.size(); ++i) {
          FlowInto(site.args[i], VarNode(target->params[i]));
        }
        AddEdge(RetNode(target), site.ret_node);
      }
    }
  }

  // Materialize resolved target lists.
  for (const IndirectSite& site : sites_) {
    std::vector<const FuncDecl*> targets;
    if (site.callee_node >= 0) {
      for (int fid : node_funcs_[static_cast<size_t>(site.callee_node)]) {
        const FuncDecl* f = funcs_by_id_[static_cast<size_t>(fid)];
        if (f != nullptr) {
          targets.push_back(f);
        }
      }
    }
    std::sort(targets.begin(), targets.end(),
              [](const FuncDecl* a, const FuncDecl* b) { return a->name < b->name; });
    resolved_[site.call] = std::move(targets);
  }
}

const std::vector<const FuncDecl*>& PointsTo::TargetsOf(const Expr* call) const {
  auto it = resolved_.find(call);
  return it == resolved_.end() ? empty_ : it->second;
}

const std::vector<const FuncDecl*>& PointsTo::HandlerTargets(const Expr* handler_expr) const {
  return TargetsOf(handler_expr);
}

std::vector<std::string> PointsTo::FuncNamesInCell(const FuncDecl* fn, int slot) const {
  std::vector<std::string> out;
  if (fn == nullptr) {
    return out;
  }
  int node = -1;
  if (slot < 0) {
    auto it = ret_nodes_.find(fn);
    node = it == ret_nodes_.end() ? -1 : it->second;
  } else if (static_cast<size_t>(slot) < fn->params.size()) {
    auto it = var_nodes_.find(fn->params[static_cast<size_t>(slot)]);
    node = it == var_nodes_.end() ? -1 : it->second;
  }
  if (node < 0) {
    return out;
  }
  for (int fid : node_funcs_[static_cast<size_t>(node)]) {
    const FuncDecl* f = funcs_by_id_[static_cast<size_t>(fid)];
    if (f != nullptr) {
      out.push_back(f->name);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace ivy
