#include "src/annodb/annodb.h"

#include <algorithm>
#include <set>
#include <tuple>

#include "src/ccount/layouts.h"
#include "src/support/field_list.h"
#include "src/tool/analysis_context.h"
#include "src/tool/pipeline.h"

namespace ivy {

AnnoDb AnnoDb::Extract(const Program& prog, const Sema& sema, const IrModule& /*module*/,
                       const BlockStopReport* blockstop) {
  AnnoDb db;
  for (const auto& [name, fn] : sema.func_map()) {
    if (fn->func_id < 0) {
      continue;
    }
    FuncFacts facts;
    facts.name = name;
    for (const Symbol* p : fn->params) {
      facts.param_annots.push_back(TypeToString(p->type));
    }
    facts.blocking = fn->attrs.blocking;
    facts.noblock = fn->attrs.noblock;
    facts.blocking_if_param = fn->attrs.blocking_if_param;
    facts.errcodes = fn->attrs.errcodes;
    facts.frame_size = fn->frame_size;
    std::string key(name);
    if (blockstop != nullptr) {
      facts.may_block = blockstop->mayblock.count(key) != 0;
    }
    db.funcs_[std::move(key)] = std::move(facts);
  }
  TypeLayoutRegistry layouts = TypeLayoutRegistry::Build(prog);
  for (const RecordDecl* rec : prog.records) {
    if (rec->type_id < 0 || rec->name.empty()) {
      continue;
    }
    RecordFacts facts;
    facts.name = rec->name;
    facts.size = rec->size;
    const TypeLayout* layout = layouts.Get(rec->type_id);
    if (layout != nullptr) {
      facts.ptr_offsets = layout->ptr_offsets;
    }
    db.records_[rec->name] = std::move(facts);
  }
  return db;
}

AnnoDb AnnoDb::Extract(AnalysisContext& ctx, const PipelineResult* pipeline) {
  const BlockStopReport* blockstop = nullptr;
  if (pipeline != nullptr) {
    if (const ToolResult* r = pipeline->ResultFor("blockstop")) {
      blockstop = r->DetailAs<BlockStopReport>();
    }
  }
  AnnoDb db = Extract(ctx.prog(), ctx.sema(), ctx.module(), blockstop);
  if (pipeline != nullptr) {
    db.SetFindings(pipeline->findings, &ctx.sm());
  }
  return db;
}

namespace {

// The field list of a summary row: the one place that names its fields,
// their JSON keys and presence rules (src/support/field_list.h). The row
// kind comes first — the branch below reads it, and it makes the binary
// encoding's first byte 0 or 1, which keeps a row distinct from the '@'
// entries AnalysisSession::ImportSignatures writes between rows.
template <typename Row, typename V>
void SummaryFields(Row& s, V& v) {
  v.Bool("defined", s.defined);
  v.Str("module", s.module);
  v.Str("function", s.function);
  if (s.defined) {
    v.Bool("may_block", s.may_block);
    v.OptStr("block_witness", s.block_witness);
    v.Bool("blocking", s.blocking);
    v.Bool("noblock", s.noblock);
    v.Int("blocking_if_param", s.blocking_if_param);
    v.Bool("returns_error", s.returns_error);
    v.OptInts("errcodes", s.errcodes);
    v.Int("frame_size", s.frame_size);
    v.OptStrs("callees", s.callees);
    v.OptStrs("returns_points", s.returns_points);
    v.OptStrs("locks_acquired", s.locks_acquired);
    v.NonNeg("stack_below", s.stack_below);
    v.Flag("cross_recursive", s.cross_recursive);
  } else {
    v.Bool("entered_atomic", s.entered_atomic);
    v.Bool("entered_in_irq", s.entered_in_irq);
    v.IndexMap("param_points", s.param_points);
  }
}

}  // namespace

Json FuncSummary::ToJson() const {
  JsonFieldWriter v;
  SummaryFields(*this, v);
  return v.Take();
}

FuncSummary FuncSummary::FromJson(const Json& j) {
  FuncSummary s;
  std::string ignored;
  FromJson(j, &s, &ignored);
  return s;
}

bool FuncSummary::FromJson(const Json& j, FuncSummary* out, std::string* error) {
  JsonFieldReader v(j);
  SummaryFields(*out, v);
  if (!v.error().empty()) {
    if (error != nullptr) {
      *error = v.error() + " in summary row " + out->module + ":" + out->function;
    }
    return false;
  }
  return true;
}

void FuncSummary::Encode(WireWriter* w) const {
  BinaryFieldWriter v(w);
  SummaryFields(*this, v);
}

std::string FuncSummary::Encode() const {
  WireWriter w;
  Encode(&w);
  return w.Take();
}

bool FuncSummary::Decode(WireReader* r, FuncSummary* out) {
  *out = FuncSummary{};
  BinaryFieldReader v(r);
  SummaryFields(*out, v);
  return r->ok();
}

bool FuncSummary::Decode(const std::string& bytes, FuncSummary* out) {
  WireReader r(bytes);
  return Decode(&r, out) && r.Finish();
}

Json AnnoDb::ToJson() const {
  Json root = Json::MakeObject();
  Json& funcs = root["functions"];
  funcs = Json::MakeObject();
  for (const auto& [name, f] : funcs_) {
    Json& j = funcs[name];
    j = Json::MakeObject();
    Json params = Json::MakeArray();
    for (const std::string& p : f.param_annots) {
      params.Append(Json::MakeString(p));
    }
    j["params"] = std::move(params);
    j["blocking"] = Json::MakeBool(f.blocking);
    j["noblock"] = Json::MakeBool(f.noblock);
    j["may_block"] = Json::MakeBool(f.may_block);
    j["blocking_if_param"] = Json::MakeInt(f.blocking_if_param);
    Json errs = Json::MakeArray();
    for (int64_t e : f.errcodes) {
      errs.Append(Json::MakeInt(e));
    }
    j["errcodes"] = std::move(errs);
    j["frame_size"] = Json::MakeInt(f.frame_size);
    if (!f.module.empty()) {
      j["module"] = Json::MakeString(f.module);
    }
  }
  Json& records = root["records"];
  records = Json::MakeObject();
  for (const auto& [name, r] : records_) {
    Json& j = records[name];
    j = Json::MakeObject();
    j["size"] = Json::MakeInt(r.size);
    Json offs = Json::MakeArray();
    for (int64_t o : r.ptr_offsets) {
      offs.Append(Json::MakeInt(o));
    }
    j["ptr_offsets"] = std::move(offs);
    if (!r.module.empty()) {
      j["module"] = Json::MakeString(r.module);
    }
  }
  if (!summaries_.empty()) {
    Json rows = Json::MakeArray();
    for (const auto& [key, row] : summaries_) {
      rows.Append(row.ToJson());
    }
    root["summaries"] = std::move(rows);
  }
  if (!findings_.empty()) {
    Json fs = Json::MakeArray();
    for (const Finding& f : findings_) {
      fs.Append(f.ToJson(findings_sm_));
    }
    root["findings"] = std::move(fs);
  }
  return root;
}

AnnoDb AnnoDb::FromJson(const Json& j, std::vector<std::string>* errors) {
  AnnoDb db;
  if (const Json* funcs = j.Find("functions")) {
    for (const auto& [name, f] : funcs->object()) {
      FuncFacts facts;
      facts.name = name;
      if (const Json* params = f.Find("params")) {
        for (const Json& p : params->array()) {
          facts.param_annots.push_back(p.AsString());
        }
      }
      if (const Json* b = f.Find("blocking")) {
        facts.blocking = b->AsBool();
      }
      if (const Json* b = f.Find("noblock")) {
        facts.noblock = b->AsBool();
      }
      if (const Json* b = f.Find("may_block")) {
        facts.may_block = b->AsBool();
      }
      if (const Json* b = f.Find("blocking_if_param")) {
        facts.blocking_if_param = static_cast<int>(b->AsInt(-1));
      }
      if (const Json* errs = f.Find("errcodes")) {
        for (const Json& e : errs->array()) {
          facts.errcodes.push_back(e.AsInt());
        }
      }
      if (const Json* fs = f.Find("frame_size")) {
        facts.frame_size = fs->AsInt();
      }
      if (const Json* m = f.Find("module")) {
        facts.module = m->AsString();
      }
      db.funcs_[name] = std::move(facts);
    }
  }
  if (const Json* records = j.Find("records")) {
    for (const auto& [name, r] : records->object()) {
      RecordFacts facts;
      facts.name = name;
      if (const Json* s = r.Find("size")) {
        facts.size = s->AsInt();
      }
      if (const Json* offs = r.Find("ptr_offsets")) {
        for (const Json& o : offs->array()) {
          facts.ptr_offsets.push_back(o.AsInt());
        }
      }
      if (const Json* m = r.Find("module")) {
        facts.module = m->AsString();
      }
      db.records_[name] = std::move(facts);
    }
  }
  if (const Json* rows = j.Find("summaries")) {
    for (const Json& row : rows->array()) {
      FuncSummary s;
      std::string err;
      if (FuncSummary::FromJson(row, &s, &err)) {
        db.AddSummary(std::move(s));
      } else if (errors != nullptr) {
        errors->push_back(err);
      }
    }
  }
  if (const Json* fs = j.Find("findings")) {
    for (const Json& f : fs->array()) {
      db.findings_.push_back(Finding::FromJson(f));
    }
  }
  return db;
}

int AnnoDb::Merge(const AnnoDb& other) {
  int added = 0;
  for (const auto& [name, facts] : other.funcs_) {
    auto [it, inserted] = funcs_.emplace(name, facts);
    if (inserted) {
      ++added;
    } else {
      // Conservative union of behavioural facts.
      it->second.blocking = it->second.blocking || facts.blocking;
      it->second.may_block = it->second.may_block || facts.may_block;
      it->second.noblock = it->second.noblock || facts.noblock;
      if (it->second.errcodes.empty()) {
        it->second.errcodes = facts.errcodes;
      }
      if (it->second.param_annots.empty()) {
        it->second.param_annots = facts.param_annots;
      }
    }
  }
  for (const auto& [name, facts] : other.records_) {
    if (records_.emplace(name, facts).second) {
      ++added;
    }
  }
  // Summary rows replace on their (module, function) key: a re-imported
  // export overwrites byte-identical rows with themselves (idempotent), and
  // a newer export of the same module wins outright.
  for (const auto& [key, row] : other.summaries_) {
    auto [it, inserted] = summaries_.insert_or_assign(key, row);
    (void)it;
    if (inserted) {
      ++added;
    }
  }
  if (!other.findings_.empty()) {
    // Dedup keyed on (module, tool, loc, message) — the repository policy
    // from the ROADMAP plus per-module provenance, so RetractModule can
    // remove exactly one module's contribution. Known consequence:
    // location-free findings with identical messages *within one module*
    // (e.g. two stackcheck overruns quoting the same byte count) coalesce
    // into one record even when their witness chains differ; the repository
    // keeps the first witness it saw.
    using FindingKey =
        std::tuple<std::string, std::string, int32_t, int32_t, int32_t, std::string>;
    std::set<FindingKey> seen;
    for (const Finding& f : findings_) {
      seen.insert({f.module, f.tool, f.loc.file, f.loc.line, f.loc.col, f.message});
    }
    for (const Finding& f : other.findings_) {
      if (seen.insert({f.module, f.tool, f.loc.file, f.loc.line, f.loc.col, f.message})
              .second) {
        findings_.push_back(f);
      }
    }
    // Imported findings carry file ids from a *foreign* compilation;
    // rendering them through this db's SourceManager would mislabel every
    // location. Fall back to raw triples for the whole merged set.
    findings_sm_ = nullptr;
  }
  return added;
}

int AnnoDb::RetractModule(const std::string& module) {
  size_t before = findings_.size();
  findings_.erase(std::remove_if(findings_.begin(), findings_.end(),
                                 [&module](const Finding& f) { return f.module == module; }),
                  findings_.end());
  int retracted = static_cast<int>(before - findings_.size());
  // Attribute and summary entries carry the same provenance — a retracted
  // module must not leave stale facts behind (they would keep seeding
  // imports after the module left the corpus).
  for (auto it = funcs_.begin(); it != funcs_.end();) {
    if (it->second.module == module) {
      it = funcs_.erase(it);
      ++retracted;
    } else {
      ++it;
    }
  }
  for (auto it = records_.begin(); it != records_.end();) {
    if (it->second.module == module) {
      it = records_.erase(it);
      ++retracted;
    } else {
      ++it;
    }
  }
  for (auto it = summaries_.begin(); it != summaries_.end();) {
    if (it->first.first == module) {
      it = summaries_.erase(it);
      ++retracted;
    } else {
      ++it;
    }
  }
  return retracted;
}

int AnnoDb::ApplyAttributes(Program* prog) const {
  int updated = 0;
  for (FuncDecl* fn : prog->funcs) {
    auto it = funcs_.find(fn->name);
    if (it == funcs_.end()) {
      continue;
    }
    bool changed = false;
    if (it->second.blocking && !fn->attrs.blocking) {
      fn->attrs.blocking = true;
      changed = true;
    }
    if (it->second.noblock && !fn->attrs.noblock) {
      fn->attrs.noblock = true;
      changed = true;
    }
    if (!it->second.errcodes.empty() && fn->attrs.errcodes.empty()) {
      fn->attrs.errcodes = it->second.errcodes;
      changed = true;
    }
    if (it->second.blocking_if_param >= 0 && fn->attrs.blocking_if_param < 0) {
      fn->attrs.blocking_if_param = it->second.blocking_if_param;
      changed = true;
    }
    if (changed) {
      ++updated;
    }
  }
  return updated;
}

void AnnoDb::AddSummary(FuncSummary row) {
  std::pair<std::string, std::string> key{row.module, row.function};
  summaries_.insert_or_assign(std::move(key), std::move(row));
}

bool AnnoDb::RemoveSummary(const std::string& module, const std::string& function) {
  return summaries_.erase({module, function}) != 0;
}

FuncSummary* AnnoDb::FindSummary(const std::string& module, const std::string& function) {
  auto it = summaries_.find({module, function});
  return it == summaries_.end() ? nullptr : &it->second;
}

void AnnoDb::StampModule(const std::string& module) {
  for (auto& [name, facts] : funcs_) {
    if (facts.module.empty()) {
      facts.module = module;
    }
  }
  for (auto& [name, facts] : records_) {
    if (facts.module.empty()) {
      facts.module = module;
    }
  }
}

int AnnoDb::ApplyAttributes(Program* prog, const ImportOptions& opts) const {
  // Per-function view of the table: one pass over the rows, then O(lookup)
  // per program function — the table is scanned per module per link round,
  // so a corpus-sized inner loop per function would go quadratic. Vectors
  // keep the sorted-by-module row order, so first-definer-match stays
  // deterministic.
  std::map<std::string, std::vector<const FuncSummary*>> rows_by_func;
  for (const auto& [key, row] : summaries_) {
    rows_by_func[key.second].push_back(&row);
  }
  static const std::vector<const FuncSummary*> kNoRows;

  int updated = 0;
  for (FuncDecl* fn : prog->funcs) {
    if (fn->func_id < 0 || fn->is_builtin) {
      continue;
    }
    auto rows_it = rows_by_func.find(fn->name);
    const std::vector<const FuncSummary*>& fn_rows =
        rows_it == rows_by_func.end() ? kNoRows : rows_it->second;
    bool changed = false;
    if (fn->body == nullptr) {
      // Extern declaration: adopt the defining module's bottom-up summary.
      // Rows are in sorted-module order; at most one definer row per
      // function exists in a well-formed corpus (duplicate definitions are a
      // link error the session reports), so first-match is deterministic.
      for (const FuncSummary* row_ptr : fn_rows) {
        const FuncSummary& row = *row_ptr;
        if (!row.defined || row.module == opts.importer) {
          continue;
        }
        if ((row.may_block || row.blocking) && !fn->attrs.blocking) {
          fn->attrs.blocking = true;
          changed = true;
        }
        if (!row.block_witness.empty() && fn->attrs.block_witness.empty()) {
          fn->attrs.block_witness = row.block_witness;
          changed = true;
        }
        if (row.noblock && !fn->attrs.noblock) {
          fn->attrs.noblock = true;
          changed = true;
        }
        if (row.blocking_if_param >= 0 && fn->attrs.blocking_if_param < 0) {
          fn->attrs.blocking_if_param = row.blocking_if_param;
          changed = true;
        }
        if (row.returns_error && !fn->attrs.returns_error) {
          fn->attrs.returns_error = true;
          changed = true;
        }
        if (!row.errcodes.empty() && fn->attrs.errcodes.empty()) {
          fn->attrs.errcodes = row.errcodes;
          changed = true;
        }
        if (row.stack_below >= 0 && fn->attrs.stack_below < 0) {
          fn->attrs.stack_below = row.stack_below;
          changed = true;
        }
        if (opts.out_seeds != nullptr && !row.returns_points.empty()) {
          (*opts.out_seeds)[{fn->name, -1}].insert(row.returns_points.begin(),
                                                   row.returns_points.end());
        }
        break;
      }
    } else {
      // Defined function: adopt the top-down usage facts other modules
      // observed about it, plus the link stage's corpus-level stack facts
      // (stored on this module's own definer row).
      for (const FuncSummary* row_ptr : fn_rows) {
        const FuncSummary& row = *row_ptr;
        if (row.defined) {
          if (row.module == opts.importer) {
            if (row.cross_recursive && !fn->attrs.cross_recursive) {
              fn->attrs.cross_recursive = true;
              changed = true;
            }
            if (row.cross_recursive && row.stack_below >= 0 && fn->attrs.stack_below < 0) {
              fn->attrs.stack_below = row.stack_below;
              changed = true;
            }
          }
          continue;
        }
        if (row.module == opts.importer) {
          continue;
        }
        if (row.entered_atomic && !fn->attrs.noblock && !fn->attrs.entered_atomic) {
          fn->attrs.entered_atomic = true;
          changed = true;
        }
        if (row.entered_in_irq && !fn->attrs.entered_in_irq) {
          fn->attrs.entered_in_irq = true;
          changed = true;
        }
        if (opts.out_seeds != nullptr) {
          for (const auto& [idx, names] : row.param_points) {
            (*opts.out_seeds)[{fn->name, idx}].insert(names.begin(), names.end());
          }
        }
      }
    }
    if (changed) {
      ++updated;
    }
  }
  return updated;
}

}  // namespace ivy
