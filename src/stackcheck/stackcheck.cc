#include "src/stackcheck/stackcheck.h"

#include <algorithm>

#include "src/support/scc.h"
#include "src/tool/function_sharder.h"

namespace ivy {

StackCheck::StackCheck(const CallGraph* cg, const IrModule* module, int64_t budget)
    : cg_(cg), module_(module), budget_(budget) {}

void StackCheck::Prepare() {
  if (prepared_) {
    return;
  }
  prepared_ = true;
  const std::vector<const FuncDecl*>& funcs = cg_->DefinedFuncs();
  const int n = static_cast<int>(funcs.size());
  for (int i = 0; i < n; ++i) {
    func_index_[funcs[i]] = i;
  }
  std::vector<std::vector<int>> adj(static_cast<size_t>(n));
  std::vector<uint8_t> self_loop(static_cast<size_t>(n), 0);
  for (int i = 0; i < n; ++i) {
    for (const CallSite& site : cg_->SitesOf(funcs[static_cast<size_t>(i)])) {
      for (const FuncDecl* callee : site.McCallees()) {
        auto it = func_index_.find(callee);
        if (it == func_index_.end()) {
          continue;  // declared-only callee: no body, no frame
        }
        if (it->second == i) {
          self_loop[static_cast<size_t>(i)] = 1;
        }
        adj[static_cast<size_t>(i)].push_back(it->second);
      }
    }
  }

  // Tarjan in DefinedFuncs() order (src/support/scc.h): SCC ids and member
  // lists come out the same no matter who asks, which is the root of the
  // sharding determinism contract.
  SccCondensation scc = TarjanScc(adj);
  scc_of_ = std::move(scc.scc_of);
  scc_members_ = std::move(scc.members);

  // Imported callee summaries: a call into an extern-declared function
  // contributes that function's corpus-level subtree depth (attrs.stack_below,
  // set by the session's link stage) as a leaf edge.
  std::vector<int64_t> extern_extra(static_cast<size_t>(n), 0);
  for (int i = 0; i < n; ++i) {
    for (const CallSite& site : cg_->SitesOf(funcs[static_cast<size_t>(i)])) {
      for (const FuncDecl* callee : site.McCallees()) {
        if (callee->body == nullptr && !callee->is_builtin &&
            callee->attrs.stack_below > extern_extra[static_cast<size_t>(i)]) {
          extern_extra[static_cast<size_t>(i)] = callee->attrs.stack_below;
        }
      }
    }
  }

  const size_t scc_count = scc_members_.size();
  scc_weight_.assign(scc_count, 0);
  scc_cyclic_.assign(scc_count, 0);
  scc_extern_extra_.assign(scc_count, 0);
  scc_link_depth_.assign(scc_count, -1);
  scc_succs_.assign(scc_count, {});
  for (size_t s = 0; s < scc_count; ++s) {
    for (int v : scc_members_[s]) {
      const FuncDecl* fn = funcs[static_cast<size_t>(v)];
      int64_t frame = 0;
      if (fn->func_id >= 0 && static_cast<size_t>(fn->func_id) < module_->funcs.size()) {
        frame = module_->funcs[static_cast<size_t>(fn->func_id)].frame_size;
      }
      scc_weight_[s] += frame;
      scc_extern_extra_[s] = std::max(scc_extern_extra_[s], extern_extra[static_cast<size_t>(v)]);
      if (fn->attrs.cross_recursive && fn->attrs.stack_below >= 0) {
        scc_link_depth_[s] = std::max(scc_link_depth_[s], fn->attrs.stack_below);
      }
      if (self_loop[static_cast<size_t>(v)]) {
        scc_cyclic_[s] = 1;
      }
    }
    if (scc_members_[s].size() > 1) {
      scc_cyclic_[s] = 1;
    }
  }
  for (int v = 0; v < n; ++v) {
    for (int w : adj[static_cast<size_t>(v)]) {
      int sv = scc_of_[static_cast<size_t>(v)];
      int sw = scc_of_[static_cast<size_t>(w)];
      if (sv != sw) {
        scc_succs_[static_cast<size_t>(sv)].push_back(sw);
      }
    }
  }
  for (std::vector<int>& succs : scc_succs_) {
    std::sort(succs.begin(), succs.end());
    succs.erase(std::unique(succs.begin(), succs.end()), succs.end());
  }
}

int64_t StackCheck::DepthOfScc(int scc, std::vector<int64_t>* memo) const {
  int64_t& slot = (*memo)[static_cast<size_t>(scc)];
  if (slot >= 0) {
    return slot;
  }
  // Cross-module cycle member: the corpus-level depth already counts this
  // SCC's frames (once) plus everything below the whole cycle.
  if (scc_link_depth_[static_cast<size_t>(scc)] >= 0) {
    slot = scc_link_depth_[static_cast<size_t>(scc)];
    return slot;
  }
  int64_t deepest = scc_extern_extra_[static_cast<size_t>(scc)];
  for (int succ : scc_succs_[static_cast<size_t>(scc)]) {
    deepest = std::max(deepest, DepthOfScc(succ, memo));
  }
  slot = scc_weight_[static_cast<size_t>(scc)] + deepest;
  return slot;
}

std::vector<const FuncDecl*> StackCheck::ResolveRoots(
    const std::vector<std::string>& entries) const {
  if (entries.empty()) {
    return cg_->DefinedFuncs();
  }
  std::map<std::string, const FuncDecl*> by_name;
  for (const FuncDecl* fn : cg_->DefinedFuncs()) {
    by_name[fn->name] = fn;
  }
  std::vector<const FuncDecl*> roots;
  for (const std::string& name : entries) {
    auto it = by_name.find(name);
    if (it != by_name.end()) {
      roots.push_back(it->second);
    }
  }
  return roots;
}

StackCheckReport StackCheck::Reduce(const std::vector<const FuncDecl*>& roots,
                                    const std::vector<int64_t>& root_depths) const {
  StackCheckReport report;
  report.budget = budget_;
  for (size_t i = 0; i < roots.size(); ++i) {
    report.entry_depths[roots[i]->name] = root_depths[i];
    if (root_depths[i] > report.worst_case) {
      report.worst_case = root_depths[i];
      report.worst_entry = roots[i]->name;
    }
  }
  // Recursive functions: members of cyclic SCCs reachable from any root.
  std::vector<uint8_t> seen(scc_members_.size(), 0);
  std::vector<int> worklist;
  for (const FuncDecl* root : roots) {
    auto it = func_index_.find(root);
    if (it == func_index_.end()) {
      continue;
    }
    int s = scc_of_[static_cast<size_t>(it->second)];
    if (!seen[static_cast<size_t>(s)]) {
      seen[static_cast<size_t>(s)] = 1;
      worklist.push_back(s);
    }
  }
  while (!worklist.empty()) {
    int s = worklist.back();
    worklist.pop_back();
    if (scc_cyclic_[static_cast<size_t>(s)]) {
      for (int v : scc_members_[static_cast<size_t>(s)]) {
        report.recursive.insert(cg_->DefinedFuncs()[static_cast<size_t>(v)]->name);
      }
    }
    for (int succ : scc_succs_[static_cast<size_t>(s)]) {
      if (!seen[static_cast<size_t>(succ)]) {
        seen[static_cast<size_t>(succ)] = 1;
        worklist.push_back(succ);
      }
    }
  }
  // Members of cross-module cycles (imported from the link stage's corpus
  // condensation): recursive exactly like local cyclic-SCC members.
  for (const FuncDecl* fn : cg_->DefinedFuncs()) {
    if (!fn->attrs.cross_recursive) {
      continue;
    }
    auto it = func_index_.find(fn);
    if (it != func_index_.end() &&
        seen[static_cast<size_t>(scc_of_[static_cast<size_t>(it->second)])]) {
      report.recursive.insert(fn->name);
    }
  }
  report.fits_budget = report.worst_case <= budget_ && report.recursive.empty();
  return report;
}

StackCheckReport StackCheck::Run(const std::vector<std::string>& entries) {
  Prepare();
  std::vector<const FuncDecl*> roots = ResolveRoots(entries);
  std::vector<int64_t> memo(scc_members_.size(), -1);
  std::vector<int64_t> depths;
  depths.reserve(roots.size());
  for (const FuncDecl* root : roots) {
    int idx = func_index_.at(root);
    depths.push_back(DepthOfScc(scc_of_[static_cast<size_t>(idx)], &memo));
  }
  return Reduce(roots, depths);
}

StackCheckReport StackCheck::Run(const std::vector<std::string>& entries,
                                 const FunctionSharder& sharder, WorkQueue* wq) {
  Prepare();
  std::vector<const FuncDecl*> roots = ResolveRoots(entries);
  std::vector<int64_t> depths(roots.size(), 0);
  sharder.ParallelChunks(wq, roots.size(),
                         [this, &roots, &depths](int, size_t begin, size_t end) {
                           // Private memo per shard: recomputation across
                           // shards is possible, divergence is not — DAG
                           // depths are pure.
                           std::vector<int64_t> memo(scc_members_.size(), -1);
                           for (size_t i = begin; i < end; ++i) {
                             int idx = func_index_.at(roots[i]);
                             depths[i] =
                                 DepthOfScc(scc_of_[static_cast<size_t>(idx)], &memo);
                           }
                         });
  return Reduce(roots, depths);
}

std::string StackCheckReport::ToString() const {
  std::string out = "StackCheck: worst-case stack " + std::to_string(worst_case) +
                    " bytes via '" + worst_entry + "' (budget " + std::to_string(budget) +
                    ")\n";
  out += std::string("  verdict: ") +
         (fits_budget ? "every call chain fits the budget"
                      : (recursive.empty() ? "BUDGET EXCEEDED"
                                           : "recursion present: run-time checks required")) +
         "\n";
  for (const auto& [name, depth] : entry_depths) {
    out += "    " + name + ": " + std::to_string(depth) + " bytes\n";
  }
  if (!recursive.empty()) {
    out += "  recursive functions (need kCheckStack run-time checks):\n";
    for (const std::string& f : recursive) {
      out += "    " + f + "\n";
    }
  }
  return out;
}

std::vector<Finding> StackCheckReport::ToFindings() const {
  std::vector<Finding> out;
  if (worst_case > budget) {
    Finding f;
    f.tool = "stackcheck";
    f.severity = FindingSeverity::kError;
    f.message = "worst-case stack " + std::to_string(worst_case) + " bytes exceeds budget " +
                std::to_string(budget);
    f.witness = {worst_entry};
    out.push_back(std::move(f));
  }
  for (const std::string& fn : recursive) {
    Finding f;
    f.tool = "stackcheck";
    f.severity = FindingSeverity::kWarning;
    f.message = "function '" + fn + "' is recursive: stack bound needs run-time checks";
    f.witness = {fn};
    out.push_back(std::move(f));
  }
  return out;
}

}  // namespace ivy
