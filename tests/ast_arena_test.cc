// Arena-backed AST invariants: node locations, acyclic bodies,
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

// Every statement and expression reachable from the function bodies of
// `prog`, in a fixed walk order (null children are skipped here and checked
// by the tests).
struct Reachable {
  std::vector<const Stmt*> stmts;
  std::vector<const Expr*> exprs;
};

Reachable WalkBodies(const Program& prog) {
  Reachable out;
  std::vector<const Expr*> exprs;
  std::vector<const Stmt*> stmts;
  for (const FuncDecl* fn : prog.funcs) {
    if (fn->body != nullptr) {
      stmts.push_back(fn->body);
    }
  }
  auto push_stmt = [&stmts](const Stmt* s) {
    if (s != nullptr) {
      stmts.push_back(s);
    }
  };
  auto push_expr = [&exprs](const Expr* e) {
    if (e != nullptr) {
      exprs.push_back(e);
    }
  };
  while (!stmts.empty() || !exprs.empty()) {
    if (!stmts.empty()) {
      const Stmt* s = stmts.back();
      stmts.pop_back();
      out.stmts.push_back(s);
      for (const Stmt* child : {s->init, s->then_stmt, s->else_stmt}) {
        push_stmt(child);
      }
      for (const Stmt* child : s->body) {
        push_stmt(child);
      }
      for (const Expr* e : {s->expr, s->cond, s->step}) {
        push_expr(e);
      }
      if (s->decl != nullptr) {
        push_expr(s->decl->init);
      }
      continue;
    }
    const Expr* e = exprs.back();
    exprs.pop_back();
    out.exprs.push_back(e);
    for (const Expr* child : {e->a, e->b, e->c}) {
      push_expr(child);
    }
    for (const Expr* arg : e->args) {
      push_expr(arg);
    }
  }
  return out;
}

// Every node reachable from a function body carries a valid location and
// never links to itself.
TEST(AstArena, ReachableNodesHaveLocations) {
  auto comp = CompileOk(kSample);
  const Reachable r = WalkBodies(comp->prog);
  for (const Stmt* s : r.stmts) {
    EXPECT_TRUE(s->loc.IsValid());
    for (const Stmt* child : {s->init, s->then_stmt, s->else_stmt}) {
      EXPECT_NE(child, s);
    }
    for (const Stmt* child : s->body) {
      EXPECT_NE(child, nullptr);
      EXPECT_NE(child, s);
    }
  }
  for (const Expr* e : r.exprs) {
    EXPECT_TRUE(e->loc.IsValid());
    EXPECT_GE(e->loc.line, 1);
    for (const Expr* child : {e->a, e->b, e->c}) {
      EXPECT_NE(child, e);
    }
    for (const Expr* arg : e->args) {
      EXPECT_NE(arg, nullptr);
    }
  }
  EXPECT_GT(r.exprs.size(), 10u);
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

// Interning deduplicates: every occurrence of one spelling views the same
// stored bytes.
TEST(AstArena, InterningDeduplicates) {
  auto comp = CompileOk(kSample);
  std::map<std::string, const char*> bytes_of;
  int idents = 0;
  for (const Expr* e : WalkBodies(comp->prog).exprs) {
    if (e->kind != ExprKind::kIdent) {
      continue;
    }
    ++idents;
    auto [it, fresh] = bytes_of.emplace(std::string(e->str_val), e->str_val.data());
    EXPECT_EQ(it->second, e->str_val.data()) << "same spelling, two stored copies";
  }
  EXPECT_GT(idents, static_cast<int>(bytes_of.size()));  // dedup actually fired
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
// FrontendCache seeds its interner from the first module's snapshot, and its
// interner and every expression's spelling match an unshared compile
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
  ASSERT_EQ(second->prog.interner().size(), lone->prog.interner().size());
  for (uint32_t i = 0; i < lone->prog.interner().size(); ++i) {
    EXPECT_EQ(second->prog.interner().View(i), lone->prog.interner().View(i));
  }
  const std::vector<const Expr*> es = WalkBodies(second->prog).exprs;
  const std::vector<const Expr*> el = WalkBodies(lone->prog).exprs;
  ASSERT_EQ(es.size(), el.size());
  for (size_t i = 0; i < el.size(); ++i) {
    EXPECT_EQ(es[i]->str_val, el[i]->str_val);
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
