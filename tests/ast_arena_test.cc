// Arena-backed AST invariants: slab ids and locations, acyclic bodies,
// string interning, prelude intern sharing, ReplaceFunction against a cold
// session, and parse-error robustness (leak-freedom is by construction — POD
// nodes in an arena — so the fuzz loop here runs under the sanitizer jobs to
// prove no error path crashes or double-builds).
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/tool/pipeline.h"
#include "src/tool/session.h"
#include "tests/synth_corpus.h"

namespace ivy {
namespace {

std::unique_ptr<Compilation> CompileText(const std::string& text) {
  return PipelineBuilder().Build().Compile({SourceFile{"t.mc", text}});
}

std::unique_ptr<Compilation> CompileOk(const std::string& text) {
  auto comp = CompileText(text);
  EXPECT_TRUE(comp->ok) << comp->Errors();
  return comp;
}

constexpr const char* kSample = R"(
struct buf { int len; char* count(len) data; };
int g_total;
int helper(int n) { return n + 1; }
void work(struct buf* b, int n) {
  int i;
  int acc;
  acc = 0;
  for (i = 0; i < n; i = i + 1) {
    if (b->len > i) {
      acc = acc + helper(i);
    }
  }
  g_total = acc;
}
)";

// Every node reachable from a function body sits in its slab at its own id
// (slab addresses are stable), carries a valid location, and never links to
// itself.
TEST(AstArena, ReachableNodesRoundTripAndHaveLocations) {
  auto comp = CompileOk(kSample);
  const Program& prog = comp->prog;
  std::vector<const Expr*> exprs;
  std::vector<const Stmt*> stmts;
  for (const FuncDecl* fn : prog.funcs) {
    if (fn->body != nullptr) {
      stmts.push_back(fn->body);
    }
  }
  int expr_nodes = 0;
  while (!stmts.empty() || !exprs.empty()) {
    if (!stmts.empty()) {
      const Stmt* s = stmts.back();
      stmts.pop_back();
      ASSERT_EQ(prog.StmtAt(StmtId{s->id}), s);
      EXPECT_TRUE(s->loc.IsValid());
      for (const Stmt* child : {s->init, s->then_stmt, s->else_stmt}) {
        if (child != nullptr) {
          EXPECT_NE(child, s);
          stmts.push_back(child);
        }
      }
      for (const Stmt* child : s->body) {
        ASSERT_NE(child, nullptr);
        EXPECT_NE(child, s);
        stmts.push_back(child);
      }
      for (const Expr* e : {s->expr, s->cond, s->step}) {
        if (e != nullptr) {
          exprs.push_back(e);
        }
      }
      if (s->decl != nullptr && s->decl->init != nullptr) {
        exprs.push_back(s->decl->init);
      }
      continue;
    }
    const Expr* e = exprs.back();
    exprs.pop_back();
    ++expr_nodes;
    ASSERT_EQ(prog.ExprAt(ExprId{e->id}), e);
    EXPECT_TRUE(e->loc.IsValid());
    EXPECT_GE(e->loc.line, 1);
    for (const Expr* child : {e->a, e->b, e->c}) {
      if (child != nullptr) {
        EXPECT_NE(child, e);
        exprs.push_back(child);
      }
    }
    for (const Expr* arg : e->args) {
      ASSERT_NE(arg, nullptr);
      exprs.push_back(arg);
    }
  }
  EXPECT_GT(expr_nodes, 10);
}

// The AST is a forest over the slabs: walking every function's body visits
// each statement at most once (no sharing, no cycles).
TEST(AstArena, BodyWalkIsAcyclic) {
  auto comp = CompileOk(kSample);
  std::set<const Stmt*> visited;
  std::vector<const Stmt*> stack;
  for (const FuncDecl* fn : comp->prog.funcs) {
    if (fn->body != nullptr) {
      stack.push_back(fn->body);
    }
  }
  while (!stack.empty()) {
    const Stmt* s = stack.back();
    stack.pop_back();
    ASSERT_TRUE(visited.insert(s).second) << "statement reached twice";
    for (const Stmt* child : {s->init, s->then_stmt, s->else_stmt}) {
      if (child != nullptr) {
        stack.push_back(child);
      }
    }
    for (const Stmt* child : s->body) {
      stack.push_back(child);
    }
  }
}

// Interning deduplicates: every occurrence of one spelling gets the same id.
TEST(AstArena, InterningDeduplicates) {
  auto comp = CompileOk(kSample);
  const Program& prog = comp->prog;
  std::map<std::string, uint32_t> id_of;
  int idents = 0;
  for (uint32_t i = 0; i < prog.expr_count(); ++i) {
    const Expr* e = prog.ExprAt(ExprId{i});
    if (e->kind != ExprKind::kIdent || e->str_id == kNoStr) {
      continue;
    }
    ++idents;
    auto [it, fresh] = id_of.emplace(std::string(e->str_val), e->str_id);
    EXPECT_EQ(it->second, e->str_id) << "same spelling, different intern id";
  }
  EXPECT_GT(idents, static_cast<int>(id_of.size()));  // dedup actually fired
}

// ReplaceFunction splices a new definition into a live session: the
// re-analysis matches a cold session over the edited source.
TEST(AstArena, ReplaceFunctionSplicesAndMatchesCold) {
  SynthCorpusOptions opt;
  opt.functions = 30;
  opt.seed = 7;
  const std::string text = GenerateSynthCorpus(opt);
  const std::string target = SynthFuncName(5);
  const std::string new_def =
      "void " + target + "(int n) {\n  int pad[8]; pad[0] = n;\n  msleep(n);\n}\n";

  PipelineBuilder b;
  b.Tool("blockstop").Tool("stackcheck");
  b.ForEachModule({{"m", {SourceFile{"m.mc", text}}}});
  AnalysisSession session = b.BuildSession();
  session.Run();

  ASSERT_TRUE(session.ReplaceFunction("m", target, new_def));
  SessionResult rerun = session.Run();
  EXPECT_EQ(rerun.modules_analyzed, 1);

  // Cold reference: a fresh session over the already-edited source.
  size_t pos = text.find("void " + target + "(int n)");
  ASSERT_NE(pos, std::string::npos);
  size_t end = text.find("\n}\n", pos);
  ASSERT_NE(end, std::string::npos);
  std::string edited = text.substr(0, pos) + new_def + text.substr(end + 3);
  PipelineBuilder cb;
  cb.Tool("blockstop").Tool("stackcheck");
  cb.ForEachModule({{"m", {SourceFile{"m.mc", edited}}}});
  AnalysisSession cold = cb.BuildSession();
  SessionResult cold_result = cold.Run();
  ASSERT_EQ(rerun.findings.size(), cold_result.findings.size());
  for (size_t i = 0; i < rerun.findings.size(); ++i) {
    EXPECT_EQ(rerun.findings[i].ToString(), cold_result.findings[i].ToString());
  }
}

// Prelude intern sharing: the second module compiled against one
// FrontendCache seeds its interner from the first module's snapshot, and
// every expression's spelling and intern id match an unshared compile
// exactly (seeding is equivalent to re-interning in the same order).
TEST(AstArena, PreludeInternSnapshotSharing) {
  PipelineBuilder b;
  Pipeline p = b.Build();
  FrontendCache cache;
  const std::string text = "int f(int n) { return n + 41; }\n";
  auto first = p.Compile({SourceFile{"a.mc", text}}, &cache);
  ASSERT_TRUE(first->ok) << first->Errors();
  ASSERT_NE(cache.prelude_interns, nullptr);
  EXPECT_EQ(cache.intern_seeds, 0);
  auto second = p.Compile({SourceFile{"b.mc", text}}, &cache);
  ASSERT_TRUE(second->ok) << second->Errors();
  EXPECT_EQ(cache.intern_seeds, 1);
  auto lone = p.Compile({SourceFile{"c.mc", text}});
  ASSERT_TRUE(lone->ok);
  ASSERT_EQ(second->prog.expr_count(), lone->prog.expr_count());
  EXPECT_EQ(second->prog.interner().size(), lone->prog.interner().size());
  for (uint32_t i = 0; i < lone->prog.expr_count(); ++i) {
    const Expr* es = second->prog.ExprAt(ExprId{i});
    const Expr* el = lone->prog.ExprAt(ExprId{i});
    EXPECT_EQ(es->str_val, el->str_val);
    EXPECT_EQ(es->str_id, el->str_id);
  }
}

// Parse-error fuzz: random truncations and byte mutations of a valid module
// must never crash the frontend (POD arena nodes make error-path leaks
// impossible by construction; sanitizer CI jobs run this same loop), and
// diagnostics must be deterministic — the same broken input renders the
// same errors twice.
TEST(AstArena, ParseErrorFuzzIsCrashFreeAndDeterministic) {
  SynthCorpusOptions opt;
  opt.functions = 12;
  opt.seed = 3;
  const std::string base = GenerateSynthCorpus(opt);
  uint64_t rng = 0x9e3779b97f4a7c15ULL;  // fixed seed: failures must replay
  auto next = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  const char kJunk[] = "({)}*;&b0\"'";
  for (int round = 0; round < 60; ++round) {
    std::string text = base;
    if (round % 2 == 0) {
      text.resize(next() % text.size());  // truncation
    } else {
      for (int m = 0; m < 4; ++m) {  // scattered mutations
        text[next() % text.size()] = kJunk[next() % (sizeof(kJunk) - 1)];
      }
    }
    auto one = CompileText(text);
    auto two = CompileText(text);
    EXPECT_EQ(one->Errors(), two->Errors()) << "diagnostics not deterministic";
  }
}

}  // namespace
}  // namespace ivy
