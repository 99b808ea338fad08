#include "src/tool/session.h"

#include <algorithm>
#include <cstdio>
#include <future>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "src/blockstop/blockstop.h"
#include "src/errcheck/errcheck.h"
#include "src/locksafe/locksafe.h"
#include "src/mc/lexer.h"
#include "src/support/clock.h"
#include "src/support/diag.h"
#include "src/support/scc.h"
#include "src/support/trace.h"
#include "src/tool/session_state.h"

namespace ivy {

// ---------------------------------------------------------------------------
// SessionResult
// ---------------------------------------------------------------------------

const ModuleRunResult* SessionResult::ModuleFor(const std::string& name) const {
  for (const ModuleRunResult& m : modules) {
    if (m.module == name) {
      return &m;
    }
  }
  return nullptr;
}

int SessionResult::ErrorCount() const {
  int n = 0;
  for (const Finding& f : findings) {
    if (f.severity == FindingSeverity::kError) {
      ++n;
    }
  }
  return n;
}

// ModuleState lives in src/tool/session_state.h, shared with the
// persistent-store half of the session (session_store.cc).

// ---------------------------------------------------------------------------
// Textual function replacement
// ---------------------------------------------------------------------------

namespace {

// Skips a balanced parenthesized token group starting at *k (which must
// point at kLParen). Returns false on an unbalanced stream.
bool SkipParenGroup(const std::vector<Token>& toks, size_t* k) {
  int paren = 0;
  for (size_t j = *k; j < toks.size(); ++j) {
    if (toks[j].kind == Tok::kEof) {
      return false;
    }
    if (toks[j].kind == Tok::kLParen) {
      ++paren;
    } else if (toks[j].kind == Tok::kRParen) {
      if (--paren == 0) {
        *k = j + 1;
        return true;
      }
    }
  }
  return false;
}

// Locates the top-level *definition* of `name` (declarations are skipped) as
// a [begin, end) byte range of `text`: identifier at brace depth 0, then a
// parameter list, then optional attribute words — errcode(...) arguments
// included — then a brace-matched body. `out_begin` is the start of the line
// holding the identifier (Mini-C signatures are single-line), `out_end` one
// past the closing brace.
//
// The scan runs over the real lexer's token stream, so braces and parens
// inside string/char literals and comments can never miscount — the textual
// scanner this replaced did miscount them (see
// SessionTest.ReplaceFunctionBodyWithBraceLiterals).
bool FindDefinition(const std::string& text, const std::string& name, size_t* out_begin,
                    size_t* out_end) {
  SourceManager sm;
  DiagEngine diags(&sm);
  Lexer lexer(sm, sm.AddFile("<replace>", text), &diags);
  std::vector<Token> toks = lexer.Lex();

  std::vector<size_t> line_starts{0};
  for (size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '\n') {
      line_starts.push_back(i + 1);
    }
  }
  auto offset_of = [&text, &line_starts](const SourceLoc& loc) -> size_t {
    size_t line = loc.line >= 1 ? static_cast<size_t>(loc.line - 1) : 0;
    if (line >= line_starts.size()) {
      return text.size();
    }
    size_t col = loc.col >= 1 ? static_cast<size_t>(loc.col - 1) : 0;
    return std::min(line_starts[line] + col, text.size());
  };

  int depth = 0;
  for (size_t i = 0; i + 1 < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind == Tok::kLBrace) {
      ++depth;
      continue;
    }
    if (t.kind == Tok::kRBrace) {
      --depth;
      continue;
    }
    if (depth != 0 || t.kind != Tok::kIdent || t.text != name ||
        toks[i + 1].kind != Tok::kLParen) {
      continue;
    }
    size_t j = i + 1;
    if (!SkipParenGroup(toks, &j)) {
      return false;
    }
    // Attribute region: words and parenthesized argument lists until the
    // body brace; anything else (';') makes this a declaration.
    bool is_definition = false;
    size_t k = j;
    while (k < toks.size()) {
      Tok kind = toks[k].kind;
      if (kind == Tok::kLBrace) {
        is_definition = true;
        break;
      }
      if (kind == Tok::kLParen) {
        if (!SkipParenGroup(toks, &k)) {
          return false;
        }
        continue;
      }
      if (kind == Tok::kSemi || kind == Tok::kEof) {
        break;
      }
      ++k;
    }
    if (!is_definition) {
      continue;  // keep scanning from i (outer depth tracking undisturbed)
    }
    int braces = 0;
    size_t m = k;
    for (; m < toks.size(); ++m) {
      if (toks[m].kind == Tok::kEof) {
        return false;
      }
      if (toks[m].kind == Tok::kLBrace) {
        ++braces;
      } else if (toks[m].kind == Tok::kRBrace && --braces == 0) {
        break;
      }
    }
    if (m >= toks.size() || braces != 0) {
      return false;
    }
    size_t ident_off = offset_of(t.loc);
    size_t begin = ident_off == 0 ? std::string::npos : text.rfind('\n', ident_off - 1);
    *out_begin = begin == std::string::npos ? 0 : begin + 1;
    *out_end = offset_of(toks[m].loc) + 1;  // one past the closing brace
    return true;
  }
  return false;
}

}  // namespace

// ---------------------------------------------------------------------------
// AnalysisSession
// ---------------------------------------------------------------------------

AnalysisSession::AnalysisSession(Pipeline pipeline)
    : pipeline_(std::move(pipeline)), cancel_(std::make_shared<std::atomic<bool>>(false)) {}

AnalysisSession::~AnalysisSession() = default;

void AnalysisSession::AddModule(const std::string& name, std::vector<SourceFile> files) {
  auto& st = modules_[name];
  if (st == nullptr) {
    st = std::make_unique<ModuleState>();
  } else if (!st->dirty && st->files.size() == files.size()) {
    // Re-adding byte-identical sources over a clean module is a no-op:
    // analysis is deterministic, so the cached state IS what re-analysis
    // would produce. This keeps a LoadStore warm start alive when a daemon
    // re-seeds its corpus with the same generated/derived sources.
    bool same = true;
    for (size_t i = 0; i < files.size(); ++i) {
      if (files[i].name != st->files[i].name || files[i].text != st->files[i].text) {
        same = false;
        break;
      }
    }
    if (same) {
      return;
    }
  }
  st->files = std::move(files);
  st->dirty = true;
  st->memo.clear();
}

void AnalysisSession::AddModule(ModuleSources module) {
  AddModule(module.name, std::move(module.files));
}

bool AnalysisSession::RemoveModule(const std::string& name) {
  auto it = modules_.find(name);
  if (it == modules_.end()) {
    return false;
  }
  // A linked table must not keep seeding importers with a departed module's
  // facts: retract its component and let the next RunLinked re-derive it.
  if (!link_table_.summaries().empty()) {
    for (const std::string& m : LinkedComponentOf({name})) {
      RetractLinkRows(m);
      if (m != name) {
        Invalidate(m);
      }
    }
  }
  modules_.erase(it);
  link_names_stale_ = true;
  return true;
}

void AnalysisSession::Invalidate(const std::string& name) {
  auto it = modules_.find(name);
  if (it != modules_.end()) {
    it->second->dirty = true;
  }
}

bool AnalysisSession::ReplaceFunction(const std::string& module, const std::string& function,
                                      const std::string& new_definition) {
  auto it = modules_.find(module);
  if (it == modules_.end()) {
    return false;
  }
  // The replaced span ends at the closing brace (exclusive of the original
  // trailing newline), so strip trailing whitespace from the replacement —
  // otherwise every edit would grow the file by a line and shift the
  // locations of everything below it.
  std::string def = new_definition;
  while (!def.empty() && (def.back() == '\n' || def.back() == '\r' || def.back() == ' ')) {
    def.pop_back();
  }
  for (SourceFile& f : it->second->files) {
    size_t begin = 0;
    size_t end = 0;
    if (FindDefinition(f.text, function, &begin, &end)) {
      f.text = f.text.substr(0, begin) + def + f.text.substr(end);
      it->second->dirty = true;
      it->second->memo.clear();
      return true;
    }
  }
  return false;
}

bool AnalysisSession::ReplaceModuleSources(const std::string& name,
                                           std::vector<SourceFile> files) {
  auto it = modules_.find(name);
  if (it == modules_.end()) {
    return false;
  }
  it->second->files = std::move(files);
  it->second->dirty = true;
  it->second->memo.clear();
  return true;
}

WorkQueue* AnalysisSession::pool() {
  if (pipeline_.shard_functions() == 1) {
    return nullptr;  // one-shard kernels run inline and never touch a pool
  }
  if (pool_ == nullptr) {
    int shards = pipeline_.shard_functions();
    int workers =
        shards == 0 ? WorkQueue::ResolveHardware() : (shards > 1 ? shards - 1 : 1);
    pool_ = std::make_unique<WorkQueue>(workers);
  }
  return pool_.get();
}

void AnalysisSession::Analyze(const std::string& name, ModuleState* st) {
  Compilation* comp = st->comp.get();

  // Cross-module imports: seed this compilation's AST (and the points-to
  // solve) with the current fact table.
  std::set<std::string> defined_names;
  std::set<std::string> extern_refs;
  for (const auto& [fname, fn] : comp->sema->func_map()) {
    if (fn->func_id < 0 || fn->is_builtin) {
      continue;
    }
    (fn->body != nullptr ? defined_names : extern_refs).insert(std::string(fname));
  }
  std::string import_sig;
  std::string memo_key;
  ImportSignatures(name, defined_names, extern_refs, &import_sig, &memo_key);
  st->link_seeds.clear();
  if (!link_table_.summaries().empty()) {
    AnnoDb::ImportOptions iopts;
    iopts.importer = name;
    iopts.out_seeds = &st->link_seeds;
    link_table_.ApplyAttributes(&comp->prog, iopts);
  }

  st->ctx = pipeline_.MakeContext(comp);
  st->ctx->SetLinkSeeds(&st->link_seeds);
  st->ctx->AttachPool(pool());

  st->result = pipeline_.RunTools(*st->ctx);
  st->ok = true;
  st->compile_errors.clear();

  st->stats = ModuleStats{};
  st->stats.valid = true;
  if (trace::Enabled()) {
    trace::GetCounter("session.solve_cold")->Add();
  }
  if (st->ctx->pointsto_builds() > 0) {
    st->stats.pointsto_propagations = st->ctx->pointsto().solve_propagations();
  }
  if (const ToolResult* r = st->result.ResultFor("blockstop")) {
    st->stats.mayblock_evals = r->Metric("mayblock_evals");
  }

  // What the link stage compares the next analysis against.
  st->import_sig = std::move(import_sig);
  st->memo_key = std::move(memo_key);
  if (!st->have_link_names || defined_names != st->defined_names ||
      extern_refs != st->extern_refs) {
    st->defined_names = std::move(defined_names);
    st->extern_refs = std::move(extern_refs);
    st->link_names_changed = true;
  }
  st->have_link_names = true;
  st->dirty = false;
}

SessionResult AnalysisSession::Run() {
  const bool cancelled = AnalyzeDirty();
  // Phase C — deterministic corpus merge, in sorted-module-name order.
  return MergeResult(cancelled);
}

bool AnalysisSession::AnalyzeDirty() {
  // Phase A — frontend, serial: the FrontendCache hands every compilation
  // the same prelude token stream (lexed exactly once per session).
  std::vector<std::pair<const std::string*, ModuleState*>> to_analyze;
  for (auto& [name, st] : modules_) {
    st->analyzed_now = false;
    if (!st->dirty) {
      continue;
    }
    st->analyzed_now = true;
    st->ctx.reset();
    st->comp.reset();
    st->result = PipelineResult{};
    st->comp = pipeline_.Compile(st->files, &cache_);
    if (!st->comp->ok) {
      st->ok = false;
      st->compile_errors = st->comp->Errors();
      st->stats = ModuleStats{};
      st->dirty = false;  // until the sources change again
      continue;
    }
    to_analyze.push_back({&name, st.get()});
  }

  // Phase B — analysis: independent per module (private Compilation +
  // AnalysisContext; the shared pool isolates kernels via TaskGroup), so
  // dirty modules run concurrently in bounded batches when the pipeline is
  // parallel. Merge order never depends on completion order. The pool is
  // materialized here, before any Analyze thread exists — lazy construction
  // inside concurrent Analyze calls would race.
  pool();
  bool cancelled = false;
  size_t batch = static_cast<size_t>(WorkQueue::ResolveHardware());
  if (pipeline_.parallel() && to_analyze.size() > 1 && batch > 1) {
    for (size_t i = 0; i < to_analyze.size(); i += batch) {
      // Cancellation boundary: a batch that started finishes (kernels are
      // never interrupted); everything after it stays dirty for the resume.
      if (cancel_requested()) {
        cancelled = true;
        break;
      }
      size_t end = std::min(i + batch, to_analyze.size());
      std::vector<std::future<void>> futures;
      futures.reserve(end - i);
      for (size_t j = i; j < end; ++j) {
        auto [mod_name, st] = to_analyze[j];
        futures.push_back(std::async(std::launch::async,
                                     [this, mod_name, st] { Analyze(*mod_name, st); }));
      }
      for (std::future<void>& f : futures) {
        f.get();
      }
    }
  } else {
    for (auto [mod_name, st] : to_analyze) {
      if (cancel_requested()) {
        cancelled = true;
        break;
      }
      Analyze(*mod_name, st);
    }
  }
  return cancelled;
}

SessionResult AnalysisSession::MergeResult(bool cancelled) const {
  SessionResult out;
  out.cancelled = cancelled;
  for (const auto& [name, st] : modules_) {
    ModuleRunResult mr;
    mr.module = name;
    mr.ok = st->ok;
    mr.reanalyzed = st->analyzed_now;
    mr.result = st->result;
    mr.compile_errors = st->compile_errors;
    if (st->analyzed_now) {
      ++out.modules_analyzed;
    } else {
      ++out.modules_reused;
    }
    if (!st->ok) {
      ++out.compile_failures;
      out.findings.push_back(SessionError("module '" + name + "' failed to compile", name));
    } else {
      for (const Finding& f : st->result.findings) {
        Finding stamped = f;
        stamped.module = name;
        out.findings.push_back(std::move(stamped));
      }
    }
    out.modules.push_back(std::move(mr));
  }
  return out;
}

// ---------------------------------------------------------------------------
// The link stage: per-function summary exchange between modules.
// ---------------------------------------------------------------------------

std::vector<FuncSummary> AnalysisSession::ExtractSummaries(const std::string& name,
                                                           ModuleState& st) const {
  std::vector<FuncSummary> out;
  if (!st.ok || st.ctx == nullptr) {
    return out;
  }
  const BlockStopReport* bs = nullptr;
  const ErrCheckReport* ec = nullptr;
  const LockSafeReport* ls = nullptr;
  if (const ToolResult* r = st.result.ResultFor("blockstop")) {
    bs = r->DetailAs<BlockStopReport>();
  }
  if (const ToolResult* r = st.result.ResultFor("errcheck")) {
    ec = r->DetailAs<ErrCheckReport>();
  }
  if (const ToolResult* r = st.result.ResultFor("locksafe")) {
    ls = r->DetailAs<LockSafeReport>();
  }
  // Read-only views of what the analyses already built; never force a build
  // here (a pipeline without the consuming pass exports no such facts).
  const CallGraph* cg = st.ctx->callgraph_builds() > 0 ? &st.ctx->callgraph() : nullptr;
  const PointsTo* pt = st.ctx->pointsto_builds() > 0 ? &st.ctx->pointsto() : nullptr;
  const IrModule& ir = st.ctx->module();

  for (const auto& [fname, fn] : st.ctx->sema().func_map()) {
    if (fn->func_id < 0 || fn->is_builtin) {
      continue;
    }
    FuncSummary row;
    row.module = name;
    row.function = fname;
    if (fn->body != nullptr) {
      // Definer row: bottom-up facts. The attrs here are source-pure — the
      // import path only mutates extern declarations' behavioural attrs.
      row.defined = true;
      row.blocking = fn->attrs.blocking;
      row.noblock = fn->attrs.noblock;
      row.blocking_if_param = fn->attrs.blocking_if_param;
      row.errcodes = fn->attrs.errcodes;
      row.frame_size = static_cast<size_t>(fn->func_id) < ir.funcs.size()
                           ? ir.funcs[static_cast<size_t>(fn->func_id)].frame_size
                           : fn->frame_size;
      if (bs != nullptr) {
        row.may_block = bs->mayblock.count(row.function) != 0;
        auto w = bs->mayblock_witness.find(row.function);
        if (w != bs->mayblock_witness.end()) {
          row.block_witness = w->second;
        }
      }
      if (ec != nullptr) {
        row.returns_error = ec->err_funcs.count(row.function) != 0;
      }
      if (ls != nullptr) {
        auto lk = ls->locks_acquired.find(row.function);
        if (lk != ls->locks_acquired.end()) {
          row.locks_acquired = lk->second;
        }
      }
      if (cg != nullptr) {
        std::set<std::string> callees;
        for (const CallSite& site : cg->SitesOf(fn)) {
          for (const FuncDecl* callee : site.McCallees()) {
            callees.insert(callee->name);
          }
        }
        row.callees.assign(callees.begin(), callees.end());
      }
      if (pt != nullptr) {
        row.returns_points = pt->FuncNamesInCell(fn, -1);
      }
    } else {
      // Usage row: top-down facts about an extern-declared function.
      if (bs != nullptr) {
        auto b = bs->extern_entry_bits.find(row.function);
        row.entered_atomic = b != bs->extern_entry_bits.end() && (b->second & 2) != 0;
      }
      if (ls != nullptr) {
        row.entered_in_irq =
            std::binary_search(ls->extern_irq_callees.begin(),
                               ls->extern_irq_callees.end(), fname);
      }
      if (pt != nullptr) {
        for (size_t p = 0; p < fn->params.size(); ++p) {
          std::vector<std::string> names = pt->FuncNamesInCell(fn, static_cast<int>(p));
          if (!names.empty()) {
            row.param_points[static_cast<int>(p)] = std::move(names);
          }
        }
      }
    }
    out.push_back(std::move(row));
  }
  return out;
}

// The link table and its row index. Every change to link_table_ goes
// through PutLinkRow/RetractLinkRows, so link_rows_ always holds the same
// rows: their canonical bytes (computed once, when a row enters) and their
// stack facts (updated in place when the condensation moves them). A round's
// LinkDelta records the first-seen state of each row it touched; diffing
// those against link_rows_ is the round's table diff, and costs what
// changed, not what the table holds.

void AnalysisSession::PutLinkRow(LinkRowPtr row, int64_t stack_below, bool cross_recursive,
                                 LinkDelta* delta) {
  LinkRowKey key{row->row.function, row->row.module};
  auto it = link_rows_.find(key);
  if (delta != nullptr) {
    delta->emplace(key, it == link_rows_.end() ? std::nullopt
                                               : std::optional<LinkRowState>(it->second));
  }
  FuncSummary copy = row->row;
  copy.stack_below = stack_below;
  copy.cross_recursive = cross_recursive;
  link_table_.AddSummary(std::move(copy));
  link_rows_[std::move(key)] = LinkRowState{std::move(row), stack_below, cross_recursive};
}

void AnalysisSession::RetractLinkRows(const std::string& module) {
  const auto& rows = link_table_.summaries();
  for (auto it = rows.lower_bound({module, std::string()});
       it != rows.end() && it->first.first == module; ++it) {
    link_rows_.erase({it->first.second, module});
  }
  link_table_.RetractModule(module);  // the table holds only summary rows
}

void AnalysisSession::PublishLinkRows(const std::string& module,
                                      const std::vector<LinkRowPtr>& rows, LinkDelta* delta) {
  // In place: an unchanged row costs one lookup. A changed row keeps its
  // stack facts; ComputeLinkStackFacts recomputes every row's.
  std::unordered_set<std::string_view> exported;
  for (const LinkRowPtr& row : rows) {
    exported.insert(row->row.function);
    LinkRowKey key{row->row.function, module};
    auto it = link_rows_.find(key);
    if (it == link_rows_.end()) {
      PutLinkRow(row, -1, false, delta);
      continue;
    }
    if (it->second.row != row && it->second.row->core != row->core) {
      if (delta != nullptr) {
        delta->emplace(key, it->second);
      }
      FuncSummary copy = row->row;
      copy.stack_below = it->second.stack_below;
      copy.cross_recursive = it->second.cross_recursive;
      link_table_.AddSummary(std::move(copy));
    }
    it->second.row = row;
  }
  // Rows the module no longer exports.
  std::vector<std::string> gone;
  const auto& table = link_table_.summaries();
  for (auto it = table.lower_bound({module, std::string()});
       it != table.end() && it->first.first == module; ++it) {
    if (exported.count(it->first.second) == 0) {
      gone.push_back(it->first.second);
    }
  }
  for (const std::string& function : gone) {
    auto it = link_rows_.find({function, module});
    if (delta != nullptr) {
      delta->emplace(it->first, it->second);
    }
    link_rows_.erase(it);
    link_table_.RemoveSummary(module, function);
  }
}

void AnalysisSession::LoadLinkRows(
    std::map<std::pair<std::string, std::string>, FuncSummary>&& rows) {
  link_table_ = AnnoDb();
  link_rows_.clear();
  for (auto& [key, s] : rows) {
    (void)key;
    const int64_t stack_below = s.stack_below;
    const bool cross_recursive = s.cross_recursive;
    PutLinkRow(std::make_shared<const LinkRow>(std::move(s)), stack_below, cross_recursive,
               nullptr);
  }
}

const std::map<std::string, AnalysisSession::LinkNameUsers>& AnalysisSession::LinkNames() {
  bool stale = link_names_stale_;
  for (auto& [name, st] : modules_) {
    (void)name;
    stale |= st->link_names_changed;
    st->link_names_changed = false;
  }
  if (stale) {
    link_names_.clear();
    for (const auto& [mname, st] : modules_) {
      if (!st->have_link_names) {
        continue;
      }
      for (const std::string& f : st->defined_names) {
        link_names_[f].definers.push_back(mname);
      }
      for (const std::string& f : st->extern_refs) {
        link_names_[f].referencers.push_back(mname);
      }
    }
    link_names_stale_ = false;
  }
  return link_names_;
}

void AnalysisSession::ImportSignatures(const std::string& importer,
                                       const std::set<std::string>& defined,
                                       const std::set<std::string>& externs, std::string* full,
                                       std::string* rows) const {
  // Exactly the rows AnnoDb::ApplyAttributes reads, in name order. `rows`
  // gets each row's stack-free bytes; `full` adds the stack facts, which
  // only StackCheck consumes. A row's bytes are self-delimiting and start
  // with 0 or 1 (FuncSummary::Encode), never '@', so each concatenation
  // parses back one way: equal signatures mean equal imports.
  std::string full_out;
  std::string rows_out;
  auto add_stack = [&full_out](const LinkRowState& s) {
    full_out += '#';
    full_out += std::to_string(s.stack_below);
    full_out += s.cross_recursive ? "x\n" : "\n";
  };
  // An extern declaration adopts the first definer row another module
  // exported.
  for (const std::string& f : externs) {
    for (auto it = link_rows_.lower_bound({f, std::string()});
         it != link_rows_.end() && it->first.first == f; ++it) {
      const LinkRowState& s = it->second;
      if (!s.row->row.defined || it->first.second == importer) {
        continue;
      }
      rows_out += s.row->core;
      rows_out += '\n';
      full_out += s.row->core;
      add_stack(s);
      break;
    }
  }
  // A defined function adopts other modules' usage rows, plus the stack
  // facts of its own definer row when it sits on a cross-module cycle.
  for (const std::string& f : defined) {
    for (auto it = link_rows_.lower_bound({f, std::string()});
         it != link_rows_.end() && it->first.first == f; ++it) {
      const LinkRowState& s = it->second;
      if (it->first.second == importer) {
        if (s.row->row.defined && s.cross_recursive) {
          full_out += '@';
          full_out += f;
          add_stack(s);
        }
        continue;
      }
      if (s.row->row.defined) {
        continue;
      }
      rows_out += s.row->core;
      rows_out += '\n';
      full_out += s.row->core;
      full_out += '\n';
    }
  }
  if (full != nullptr) {
    *full = std::move(full_out);
  }
  if (rows != nullptr) {
    *rows = std::move(rows_out);
  }
}

void AnalysisSession::ComputeLinkStackFacts(LinkDelta* delta) {
  link_conflicts_.clear();
  // One sweep over link_rows_ (ordered by function, then module) finds each
  // function's first definer, which wins a conflicted name. Every other row
  // (usage rows, later definers) carries no stack facts, so the facts are a
  // function of the table alone.
  std::vector<std::map<LinkRowKey, LinkRowState>::iterator> definer;
  std::unordered_map<std::string_view, int> index;
  for (auto it = link_rows_.begin(); it != link_rows_.end(); ++it) {
    const bool first_definer =
        it->second.row->row.defined &&
        (definer.empty() || definer.back()->first.first != it->first.first);
    if (first_definer) {
      index.emplace(it->first.first, static_cast<int>(definer.size()));
      definer.push_back(it);
      continue;
    }
    if (it->second.row->row.defined) {
      link_conflicts_.insert(it->first.first);
    }
    SetLinkStackFacts(&*it, -1, false, delta);
  }
  const int n = static_cast<int>(definer.size());
  std::vector<std::vector<int>> adj(static_cast<size_t>(n));
  std::vector<uint8_t> self_loop(static_cast<size_t>(n), 0);
  for (int i = 0; i < n; ++i) {
    for (const std::string& callee : definer[static_cast<size_t>(i)]->second.row->row.callees) {
      auto it = index.find(callee);
      if (it == index.end()) {
        continue;  // builtin or never-defined name: no frame, no edge
      }
      if (it->second == i) {
        self_loop[static_cast<size_t>(i)] = 1;
      }
      adj[static_cast<size_t>(i)].push_back(it->second);
    }
  }

  // Tarjan in sorted-name order (src/support/scc.h) — literally the same
  // condensation code StackCheck runs per module, applied corpus-wide.
  SccCondensation scc = TarjanScc(adj);
  const std::vector<int>& scc_of = scc.scc_of;
  const std::vector<std::vector<int>>& scc_members = scc.members;

  const size_t scc_count = scc_members.size();
  std::vector<int64_t> weight(scc_count, 0);
  std::vector<uint8_t> cyclic(scc_count, 0);
  std::vector<uint8_t> multi_module(scc_count, 0);
  std::vector<std::vector<int>> succs(scc_count);
  for (size_t s = 0; s < scc_count; ++s) {
    const std::string* first_owner = nullptr;
    for (int v : scc_members[s]) {
      const auto& def = *definer[static_cast<size_t>(v)];
      weight[s] += def.second.row->row.frame_size;
      if (first_owner == nullptr) {
        first_owner = &def.first.second;
      } else if (*first_owner != def.first.second) {
        multi_module[s] = 1;
      }
      if (self_loop[static_cast<size_t>(v)]) {
        cyclic[s] = 1;
      }
    }
    if (scc_members[s].size() > 1) {
      cyclic[s] = 1;
    }
  }
  for (int v = 0; v < n; ++v) {
    for (int w : adj[static_cast<size_t>(v)]) {
      int sv = scc_of[static_cast<size_t>(v)];
      int sw = scc_of[static_cast<size_t>(w)];
      if (sv != sw) {
        succs[static_cast<size_t>(sv)].push_back(sw);
      }
    }
  }
  // Tarjan emits SCCs in reverse topological order: successors of s always
  // have smaller scc ids, so one ascending sweep computes the depths.
  std::vector<int64_t> depth(scc_count, 0);
  for (size_t s = 0; s < scc_count; ++s) {
    int64_t deepest = 0;
    for (int succ : succs[s]) {
      deepest = std::max(deepest, depth[static_cast<size_t>(succ)]);
    }
    depth[s] = weight[s] + deepest;
  }

  for (int v = 0; v < n; ++v) {
    size_t s = static_cast<size_t>(scc_of[static_cast<size_t>(v)]);
    SetLinkStackFacts(&*definer[static_cast<size_t>(v)], depth[s],
                      cyclic[s] != 0 && multi_module[s] != 0, delta);
  }
}

bool AnalysisSession::StackInputsChanged(const LinkDelta& delta) const {
  // The condensation reads only which definer rows exist and their callees
  // and frame sizes.
  for (const auto& [key, before] : delta) {
    auto after = link_rows_.find(key);
    const FuncSummary* old_row = before.has_value() ? &before->row->row : nullptr;
    const FuncSummary* new_row = after != link_rows_.end() ? &after->second.row->row : nullptr;
    const bool was_definer = old_row != nullptr && old_row->defined;
    const bool is_definer = new_row != nullptr && new_row->defined;
    if (was_definer != is_definer ||
        (is_definer && (old_row->frame_size != new_row->frame_size ||
                        old_row->callees != new_row->callees))) {
      return true;
    }
  }
  return false;
}

void AnalysisSession::SetLinkStackFacts(std::pair<const LinkRowKey, LinkRowState>* entry,
                                        int64_t stack_below, bool cross_recursive,
                                        LinkDelta* delta) {
  LinkRowState& state = entry->second;
  if (state.stack_below == stack_below && state.cross_recursive == cross_recursive) {
    return;
  }
  if (delta != nullptr) {
    delta->emplace(entry->first, state);
  }
  state.stack_below = stack_below;
  state.cross_recursive = cross_recursive;
  FuncSummary* row = link_table_.FindSummary(entry->first.second, entry->first.first);
  row->stack_below = stack_below;
  row->cross_recursive = cross_recursive;
}

std::set<std::string> AnalysisSession::LinkedComponentOf(const std::set<std::string>& roots) {
  const std::map<std::string, LinkNameUsers>& names = LinkNames();
  auto users = [&names](const std::string& f) -> const LinkNameUsers* {
    auto it = names.find(f);
    return it == names.end() ? nullptr : &it->second;
  };
  std::set<std::string> out;
  std::vector<std::string> work(roots.begin(), roots.end());
  while (!work.empty()) {
    std::string m = std::move(work.back());
    work.pop_back();
    if (!out.insert(m).second) {
      continue;
    }
    auto it = modules_.find(m);
    if (it == modules_.end() || !it->second->have_link_names) {
      continue;
    }
    for (const std::string& f : it->second->defined_names) {
      if (const LinkNameUsers* u = users(f)) {
        work.insert(work.end(), u->referencers.begin(), u->referencers.end());
      }
    }
    for (const std::string& f : it->second->extern_refs) {
      if (const LinkNameUsers* u = users(f)) {
        work.insert(work.end(), u->definers.begin(), u->definers.end());
      }
    }
  }
  return out;
}

void AnalysisSession::PrepareLinkedRun() {
  link_stats_ = LinkStats{};

  // Retraction safety. A monotone fixpoint cannot un-derive facts, and a
  // stale "f may block" row can keep supporting itself around a
  // cross-module cycle after the edit that justified it is gone. So every
  // edit clears the whole cross-module dependency component containing the
  // edited modules — their rows are re-derived from below (mostly out of
  // the link memo), while modules outside the component keep their
  // converged facts and cached results.
  std::set<std::string> source_dirty;
  for (auto& [name, st] : modules_) {
    if (st->dirty) {
      source_dirty.insert(name);
    }
  }
  if (!linked_ever_) {
    link_table_ = AnnoDb();
    link_rows_.clear();
    for (auto& [name, st] : modules_) {
      (void)name;
      st->dirty = true;
    }
  } else if (!source_dirty.empty()) {
    for (const std::string& m : LinkedComponentOf(source_dirty)) {
      RetractLinkRows(m);
      Invalidate(m);
    }
  }
}

std::set<std::string> AnalysisSession::DirtyModules(const LinkDelta& delta) {
  // Mark exactly the importers of changed facts dirty: a changed definer
  // row dirties the modules that declare the function extern; a changed
  // usage row dirties its definer; changed link-stage stack facts feed back
  // into the definer itself when a cross-module cycle appears or
  // disappears.
  const std::map<std::string, LinkNameUsers>& names = LinkNames();
  std::set<std::string> dirty;
  for (const auto& [key, before] : delta) {
    auto after_it = link_rows_.find(key);
    const LinkRowState* oldr = before.has_value() ? &*before : nullptr;
    const LinkRowState* newr = after_it == link_rows_.end() ? nullptr : &after_it->second;
    if (oldr == nullptr && newr == nullptr) {
      continue;
    }
    if (oldr != nullptr && newr != nullptr && oldr->stack_below == newr->stack_below &&
        oldr->cross_recursive == newr->cross_recursive &&
        (oldr->row == newr->row || oldr->row->core == newr->row->core)) {
      continue;
    }
    const std::string& fname = key.first;
    const std::string& exporter = key.second;
    bool defined = (newr != nullptr ? newr : oldr)->row->row.defined;
    auto users = names.find(fname);
    if (users != names.end()) {
      for (const std::string& m :
           defined ? users->second.referencers : users->second.definers) {
        if (m != exporter) {
          dirty.insert(m);
        }
      }
    }
    if (defined) {
      bool xrec_changed =
          (oldr == nullptr ? false : oldr->cross_recursive) !=
              (newr == nullptr ? false : newr->cross_recursive) ||
          ((oldr != nullptr && oldr->cross_recursive) &&
           (newr != nullptr && newr->cross_recursive) &&
           oldr->stack_below != newr->stack_below);
      if (xrec_changed) {
        dirty.insert(exporter);
      }
    }
  }
  return dirty;
}

// ---------------------------------------------------------------------------
// The link memo: early cutoff for the fixpoint replay.
//
// A module's exported rows are a pure function of its sources and the rows
// it imports (the determinism contract the warm/cold gate relies on), and
// of those rows only StackCheck reads the stack facts, which no exported row
// depends on. So per module, the row-relevant import signature (sources
// fixed) determines the export: a dirty module whose signature was seen
// before gets the memoized rows, and the round's table, diff and dirty set
// are what its re-analysis would have produced.
// ---------------------------------------------------------------------------

AnalysisSession::MemoHits AnalysisSession::ServeFromMemo() {
  MemoHits served;
  for (auto& [name, st] : modules_) {
    if (!st->dirty || st->memo.empty()) {
      continue;
    }
    std::string key;
    ImportSignatures(name, st->defined_names, st->extern_refs, nullptr, &key);
    auto hit = st->memo.find(key);
    if (hit == st->memo.end()) {
      continue;
    }
    hit->second.relink = link_runs_;
    st->dirty = false;
    served.emplace_back(name, &hit->second);
  }
  return served;
}

bool AnalysisSession::StepAndPublish(const RoundStep& step, const MemoHits& served,
                                     LinkDelta* delta, std::string* err) {
  RoundExports exports;
  if (!step(&exports, err)) {
    // Nothing is published: every module the step or the memo touched
    // stays dirty, so a resumed run re-derives from a consistent table.
    for (auto& [name, st] : modules_) {
      (void)name;
      st->dirty |= st->analyzed_now;
    }
    for (const auto& [name, entry] : served) {
      (void)entry;
      Invalidate(name);
    }
    link_stats_.cancelled = err->empty();
    return false;
  }
  link_stats_.module_analyses += static_cast<int>(exports.size());
  for (auto& [name, summaries] : exports) {
    ModuleState& st = *modules_.at(name);
    std::vector<LinkRowPtr> rows;
    if (st.ok) {
      // Memoize the export, sharing rows identical to ones the module's
      // other entries already hold.
      std::unordered_map<std::string_view, LinkRowPtr> known;
      for (const auto& [key, entry] : st.memo) {
        (void)key;
        for (const LinkRowPtr& row : entry.rows) {
          known.emplace(row->core, row);
        }
      }
      for (FuncSummary& summary : summaries) {
        auto row = std::make_shared<const LinkRow>(std::move(summary));
        auto same = known.find(row->core);
        rows.push_back(same != known.end() ? same->second : std::move(row));
      }
      MemoEntry& entry = st.memo[st.memo_key];
      entry.rows = rows;
      entry.relink = link_runs_;
    }
    PublishLinkRows(name, rows, delta);
  }
  for (const auto& [name, entry] : served) {
    PublishLinkRows(name, entry->rows, delta);
  }
  return true;
}

bool AnalysisSession::RebuildStaleFindings(const RoundStep& step, std::set<std::string>* dirty,
                                           std::string* err) {
  // Findings come only from real analyses. A module served from the memo
  // since its last analysis may hold findings computed under other imports
  // (stack facts included), so it is analyzed once more against the
  // converged table.
  std::vector<std::string> stale;
  for (const auto& [name, st] : modules_) {
    if (st->dirty || !st->ok || !st->have_link_names) {
      continue;
    }
    std::string full;
    ImportSignatures(name, st->defined_names, st->extern_refs, &full, nullptr);
    if (full != st->import_sig) {
      stale.push_back(name);
    }
  }
  if (stale.empty()) {
    return true;
  }
  trace::Span span("session.findings_rebuild", {"modules", static_cast<int64_t>(stale.size())});
  for (const std::string& m : stale) {
    Invalidate(m);
  }
  const int analyses = link_stats_.module_analyses;
  // The rebuilt rows cannot differ from the memo's. If they do, the memo
  // broke its contract: report it, and let the fixpoint carry on from the
  // real rows.
  LinkDelta rebuilt;
  if (!StepAndPublish(step, {}, &rebuilt, err)) {
    return false;
  }
  link_stats_.findings_rebuilds += link_stats_.module_analyses - analyses;
  if (StackInputsChanged(rebuilt)) {
    ComputeLinkStackFacts(&rebuilt);
  }
  for (const auto& [key, before] : rebuilt) {
    auto now = link_rows_.find(key);
    if (!before.has_value() || now == link_rows_.end() ||
        before->row->core != now->second.row->core) {
      memo_mismatches_.insert(key.second);
    }
  }
  *dirty = DirtyModules(rebuilt);
  return true;
}

void AnalysisSession::PruneLinkMemos() {
  for (auto& [name, st] : modules_) {
    (void)name;
    for (auto it = st->memo.begin(); it != st->memo.end();) {
      it = it->second.relink == link_runs_ ? std::next(it) : st->memo.erase(it);
    }
  }
}

int64_t AnalysisSession::LinkMemoBytes() const {
  // Signature keys plus the canonical bytes of each distinct memoized row.
  int64_t bytes = 0;
  for (const auto& [name, st] : modules_) {
    (void)name;
    std::set<const LinkRow*> rows;
    for (const auto& [key, entry] : st->memo) {
      bytes += static_cast<int64_t>(key.size());
      for (const LinkRowPtr& row : entry.rows) {
        if (rows.insert(row.get()).second) {
          bytes += static_cast<int64_t>(row->core.size());
        }
      }
    }
  }
  return bytes;
}

void AnalysisSession::FinishLinkedRun(int max_rounds, SessionResult* result) {
  link_stats_.summary_rows = static_cast<int>(link_table_.summaries().size());
  std::set<std::pair<std::string, std::string>> edges;  // (importer, definer)
  for (const auto& [fname, users] : LinkNames()) {
    (void)fname;
    for (const std::string& importer : users.referencers) {
      for (const std::string& definer : users.definers) {
        if (importer != definer) {
          edges.emplace(importer, definer);
        }
      }
    }
  }
  link_stats_.cross_edges = static_cast<int>(edges.size());
  linked_ever_ = true;

  if (!link_stats_.converged && !link_stats_.cancelled) {
    result->findings.push_back(SessionError("cross-module link fixpoint did not converge within " +
                                            std::to_string(max_rounds) + " rounds"));
  }
  for (const std::string& fname : link_conflicts_) {
    Finding f = SessionError(
        "function '" + fname +
        "' is defined in multiple modules; linking used the first definer's facts");
    f.witness = {fname};
    result->findings.push_back(std::move(f));
  }
  for (const std::string& mname : memo_mismatches_) {
    result->findings.push_back(SessionError(
        "module '" + mname + "' re-analyzed to different summary rows than the link memo served",
        mname));
  }
}

SessionResult AnalysisSession::RunLinked() {
  return LinkFixpoint([this](RoundExports* exports, std::string*) {
    if (AnalyzeDirty()) {
      return false;  // cancelled
    }
    for (auto& [name, st] : modules_) {
      if (st->analyzed_now) {
        (*exports)[name] = ExtractSummaries(name, *st);
      }
    }
    return true;
  });
}

SessionResult AnalysisSession::LinkFixpoint(const RoundStep& step) {
  PrepareLinkedRun();
  ++link_runs_;
  memo_mismatches_.clear();

  // Safety cap: facts grow monotonically within a linked run, so the
  // fixpoint terminates on its own; the cap only guards against a future
  // non-monotone exporter bug turning into an infinite loop.
  const int max_rounds = static_cast<int>(modules_.size()) * 4 + 8;
  bool ran_round = false;  // whether any round got as far as the step
  std::string failure;     // why the step failed (empty: it did not)
  for (;;) {
    // Cancellation boundary between rounds (the in-process step also
    // checks between modules): an aborted fixpoint reports cancelled,
    // leaves the dirty modules dirty, and skips the summary re-export — the
    // table keeps the last fully-exported round, so a resumed run
    // re-derives from a consistent base.
    if (cancel_requested()) {
      link_stats_.cancelled = true;
      break;
    }
    ++link_stats_.rounds;
    // One span per fixpoint round (dirty count attached once the diff is
    // known) plus a round-latency histogram — the fixpoint's progress curve
    // in a Perfetto view.
    trace::Span round_span("session.link_round",
                           {"round", static_cast<int64_t>(link_stats_.rounds)});
    const uint64_t round_t0 = trace::Enabled() ? MonotonicNowNs() : 0;
    const MemoHits served = ServeFromMemo();
    ran_round = true;
    const int analyses = link_stats_.module_analyses;
    LinkDelta delta;
    if (!StepAndPublish(step, served, &delta, &failure)) {
      break;
    }
    link_stats_.memo_hits += static_cast<int>(served.size());
    if (trace::Enabled()) {
      trace::GetCounter("session.memo_hit")->Add(served.size());
      trace::GetCounter("session.memo_miss")
          ->Add(static_cast<uint64_t>(link_stats_.module_analyses - analyses));
    }
    // The first round follows the retraction, which no delta recorded.
    if (link_stats_.rounds == 1 || StackInputsChanged(delta)) {
      ComputeLinkStackFacts(&delta);
    }
    std::set<std::string> dirty = DirtyModules(delta);
    if (dirty.empty() && !RebuildStaleFindings(step, &dirty, &failure)) {
      break;
    }
    round_span.AddArg({"dirty", static_cast<int64_t>(dirty.size())});
    if (trace::Enabled()) {
      trace::GetHistogram("session.link_round_us")
          ->Record((MonotonicNowNs() - round_t0) / 1000);
      trace::GetCounter("session.dirty_modules")->Add(dirty.size());
    }
    if (dirty.empty()) {
      link_stats_.converged = true;
      break;
    }
    // Invalidate BEFORE the cap check: if the cap fires, the unconverged
    // modules stay dirty, so a follow-up run resumes the fixpoint instead
    // of reporting the stale table as converged.
    for (const std::string& m : dirty) {
      Invalidate(m);
    }
    if (link_stats_.rounds >= max_rounds) {
      break;
    }
  }

  if (!link_stats_.cancelled && failure.empty()) {
    PruneLinkMemos();
  }
  if (trace::Enabled()) {
    trace::GetGauge("session.memo_bytes")->Set(LinkMemoBytes());
  }
  // One corpus merge, after the last analysis pass.
  SessionResult result;
  if (ran_round) {
    result = MergeResult(link_stats_.cancelled);
  }
  result.cancelled = link_stats_.cancelled;
  if (!failure.empty()) {
    result.findings.push_back(SessionError(failure));
  }
  FinishLinkedRun(max_rounds, &result);
  return result;
}

AnnoDb AnalysisSession::ExportAnnoDb() {
  AnnoDb merged;
  for (auto& [name, st] : modules_) {
    if (!st->ok || st->ctx == nullptr) {
      continue;
    }
    AnnoDb db = AnnoDb::Extract(*st->ctx, &st->result);
    db.StampModule(name);
    std::vector<Finding> stamped = st->result.findings;
    for (Finding& f : stamped) {
      f.module = name;
    }
    db.SetFindings(std::move(stamped), &st->ctx->sm());
    merged.Merge(db);
  }
  // The summary fact table rides along: the converged link table when the
  // session has linked, else fresh per-module rows (no corpus stack facts —
  // those need the link fixpoint).
  if (linked_ever_) {
    merged.Merge(link_table_);
  } else {
    for (auto& [name, st] : modules_) {
      for (FuncSummary& row : ExtractSummaries(name, *st)) {
        merged.AddSummary(std::move(row));
      }
    }
  }
  return merged;
}

const Compilation* AnalysisSession::CompilationFor(const std::string& name) const {
  auto it = modules_.find(name);
  return it == modules_.end() ? nullptr : it->second->comp.get();
}

ModuleStats AnalysisSession::StatsFor(const std::string& name) const {
  auto it = modules_.find(name);
  return it == modules_.end() ? ModuleStats{} : it->second->stats;
}

PipelineRun AnalysisSession::TakeModule(const std::string& name) {
  PipelineRun run;
  auto it = modules_.find(name);
  if (it == modules_.end()) {
    return run;
  }
  ModuleState& st = *it->second;
  if (st.ctx != nullptr) {
    // The session (link seeds storage, pool) will not outlive these artifacts.
    st.ctx->SetLinkSeeds(nullptr);
    st.ctx->AttachPool(nullptr);
  }
  run.comp = std::move(st.comp);
  run.ctx = std::move(st.ctx);
  run.result = std::move(st.result);
  modules_.erase(it);
  link_names_stale_ = true;
  return run;
}

// ---------------------------------------------------------------------------
// The pipeline-level shims: one code path for one-shot and corpus runs.
// ---------------------------------------------------------------------------

PipelineRun Pipeline::CompileAndRun(const std::vector<SourceFile>& files) const {
  AnalysisSession session(*this);
  session.AddModule("", files);
  session.Run();
  return session.TakeModule("");
}

AnalysisSession PipelineBuilder::BuildSession() const {
  AnalysisSession session(pipeline_);
  for (const ModuleSources& m : modules_) {
    session.AddModule(m);
  }
  return session;
}

}  // namespace ivy
