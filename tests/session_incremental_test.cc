// AnalysisSession: the corpus-level determinism and incremental-exactness
// contracts, property-tested over the seeded synthetic corpus generator.
//
//   1. Batched == independent: a ForEachModule run over N modules produces,
//      per module, findings byte-identical to N independent single-module
//      CompileAndRun invocations; the merged corpus view is independent of
//      registration order.
//   2. Incremental == cold: after any sequence of function edits, a later
//      Run() (which re-analyzes only dirty modules, each with one cold
//      solve) matches a cold session over the same sources byte for byte,
//      solver counters included.
//   3. Provenance: the exported annotation repository stamps findings with
//      their module, and RetractModule removes exactly one module's records.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/annodb/annodb.h"
#include "src/support/rng.h"
#include "src/tool/pipeline.h"
#include "src/tool/session.h"
#include "tests/synth_corpus.h"

namespace ivy {
namespace {

std::string Dump(const std::vector<Finding>& findings) {
  Json arr = Json::MakeArray();
  for (const Finding& f : findings) {
    arr.Append(f.ToJson());
  }
  return arr.Dump();
}

ModuleSources MakeModule(const std::string& name, uint64_t seed, int functions) {
  SynthCorpusOptions opt;
  opt.functions = functions;
  opt.seed = seed;
  // A function-pointer table chain gives the points-to solve a real
  // workload, so the solver counters measure something meaningful.
  opt.hook_tables = 4;
  return ModuleSources{name, {SourceFile{name + ".mc", GenerateSynthCorpus(opt)}}};
}

std::vector<ModuleSources> MakeCorpus(int modules, uint64_t seed_base, int functions) {
  std::vector<ModuleSources> out;
  for (int m = 0; m < modules; ++m) {
    char name[16];
    std::snprintf(name, sizeof(name), "mod_%02d", m);
    out.push_back(MakeModule(name, seed_base + static_cast<uint64_t>(m), functions));
  }
  return out;
}

PipelineBuilder TestPipeline() {
  PipelineBuilder b;
  b.Tool("blockstop").Tool("stackcheck").Tool("errcheck").Tool("locksafe");
  return b;
}

// Valid replacement definitions for fn_<i> of a `total`-function corpus.
std::string BlockingLeaf(int i) {
  return "void " + SynthFuncName(i) + "(int n) {\n  int pad[16]; pad[0] = n;\n  msleep(n);\n}\n";
}
std::string QuietLeaf(int i) {
  return "void " + SynthFuncName(i) + "(int n) {\n  int pad[4]; pad[0] = n;\n  udelay(1);\n}\n";
}
std::string SpinCaller(int i, int total) {
  std::string callee = SynthFuncName(i + 1 < total ? i + 1 : 0);
  return "void " + SynthFuncName(i) + "(int n) {\n  int pad[8]; pad[0] = n;\n  spin_lock(&lk_0);\n  if (n > 0) { " +
         callee + "(n - 1); }\n  spin_unlock(&lk_0);\n}\n";
}
std::string VariantFor(uint64_t pick, int i, int total) {
  switch (pick % 3) {
    case 0:
      return BlockingLeaf(i);
    case 1:
      return QuietLeaf(i);
    default:
      return SpinCaller(i, total);
  }
}

TEST(AnalysisSession, BatchedMatchesIndependentRuns) {
  const int kModules = 10;
  const int kFunctions = 48;
  std::vector<ModuleSources> corpus = MakeCorpus(kModules, 100, kFunctions);

  AnalysisSession session = TestPipeline().ForEachModule(corpus).BuildSession();
  SessionResult batched = session.Run();
  EXPECT_EQ(batched.modules_analyzed, kModules);
  EXPECT_EQ(batched.compile_failures, 0);

  Pipeline independent = TestPipeline().Build();
  for (const ModuleSources& m : corpus) {
    PipelineRun run = independent.CompileAndRun(m.files);
    ASSERT_TRUE(run.comp->ok) << m.name << ": " << run.comp->Errors();
    const ModuleRunResult* mr = batched.ModuleFor(m.name);
    ASSERT_NE(mr, nullptr) << m.name;
    EXPECT_FALSE(run.result.findings.empty()) << m.name;
    EXPECT_EQ(Dump(mr->result.findings), Dump(run.result.findings)) << m.name;
  }

  // The prelude was lexed exactly once for the whole corpus.
  EXPECT_EQ(session.prelude_reuses(), kModules - 1);
}

TEST(AnalysisSession, MergedFindingsIndependentOfRegistrationOrder) {
  std::vector<ModuleSources> corpus = MakeCorpus(6, 300, 48);

  AnalysisSession forward = TestPipeline().ForEachModule(corpus).BuildSession();
  std::vector<ModuleSources> reversed(corpus.rbegin(), corpus.rend());
  AnalysisSession backward = TestPipeline().ForEachModule(reversed).BuildSession();

  EXPECT_EQ(Dump(forward.Run().findings), Dump(backward.Run().findings));
}

TEST(AnalysisSession, ShardedSessionByteIdentical) {
  std::vector<ModuleSources> corpus = MakeCorpus(4, 500, 64);
  AnalysisSession one_shard = TestPipeline().ForEachModule(corpus).BuildSession();
  SessionResult one_shard_result = one_shard.Run();

  PipelineBuilder sharded_builder = TestPipeline();
  sharded_builder.ShardFunctions(3).ForEachModule(corpus);
  AnalysisSession sharded = sharded_builder.BuildSession();
  SessionResult sharded_result = sharded.Run();

  EXPECT_FALSE(one_shard_result.findings.empty());
  EXPECT_EQ(Dump(sharded_result.findings), Dump(one_shard_result.findings));
}

TEST(AnalysisSession, IncrementalSingleEditMatchesColdAndStaysLocal) {
  const int kModules = 10;
  const int kFunctions = 64;
  std::vector<ModuleSources> corpus = MakeCorpus(kModules, 700, kFunctions);
  const std::string edited = "mod_03";

  AnalysisSession session = TestPipeline().ForEachModule(corpus).BuildSession();
  session.Run();

  ASSERT_TRUE(session.ReplaceFunction(edited, SynthFuncName(5), BlockingLeaf(5)));
  SessionResult rerun = session.Run();
  EXPECT_EQ(rerun.modules_analyzed, 1);
  EXPECT_EQ(rerun.modules_reused, kModules - 1);

  // Byte-for-byte identical to a cold session over the edited sources.
  AnalysisSession cold = TestPipeline().ForEachModule(corpus).BuildSession();
  ASSERT_TRUE(cold.ReplaceFunction(edited, SynthFuncName(5), BlockingLeaf(5)));
  SessionResult cold_result = cold.Run();
  EXPECT_FALSE(cold_result.findings.empty());
  EXPECT_EQ(Dump(rerun.findings), Dump(cold_result.findings));

  // The re-analysis is one cold solve: its solver counters equal the cold
  // session's exactly.
  ModuleStats rerun_stats = session.StatsFor(edited);
  ModuleStats cold_stats = cold.StatsFor(edited);
  ASSERT_TRUE(rerun_stats.valid);
  ASSERT_GT(cold_stats.pointsto_propagations, 0);
  ASSERT_GT(cold_stats.mayblock_evals, 0);
  EXPECT_EQ(rerun_stats.pointsto_propagations, cold_stats.pointsto_propagations);
  EXPECT_EQ(rerun_stats.mayblock_evals, cold_stats.mayblock_evals);
}

TEST(AnalysisSession, InvalidateWithoutEditReanalyzesIdentically) {
  std::vector<ModuleSources> corpus = MakeCorpus(4, 900, 48);
  AnalysisSession session = TestPipeline().ForEachModule(corpus).BuildSession();
  std::string golden = Dump(session.Run().findings);
  ModuleStats cold_stats = session.StatsFor("mod_01");
  ASSERT_GT(cold_stats.pointsto_propagations, 0);

  session.Invalidate("mod_01");
  SessionResult rerun = session.Run();
  EXPECT_EQ(rerun.modules_analyzed, 1);
  EXPECT_EQ(Dump(rerun.findings), golden);

  ModuleStats rerun_stats = session.StatsFor("mod_01");
  EXPECT_EQ(rerun_stats.pointsto_propagations, cold_stats.pointsto_propagations);
  EXPECT_EQ(rerun_stats.mayblock_evals, cold_stats.mayblock_evals);
}

TEST(AnalysisSession, RandomizedEditSequencesMatchColdRuns) {
  // The acceptance property: after ANY edit sequence, incremental findings
  // are byte-identical to a cold full run over the same sources. Sharded
  // pipeline, so the shared pool is exercised too.
  const int kModules = 6;
  const int kFunctions = 48;
  for (uint64_t seed : {11u, 23u}) {
    std::vector<ModuleSources> corpus = MakeCorpus(kModules, 1000 + seed, kFunctions);
    PipelineBuilder session_builder = TestPipeline();
    session_builder.ShardFunctions(2).ForEachModule(corpus);
    AnalysisSession session = session_builder.BuildSession();
    session.Run();

    Rng rng(seed);
    std::vector<std::pair<std::string, std::pair<int, std::string>>> edits;
    for (int step = 0; step < 4; ++step) {
      int m = static_cast<int>(rng.Below(kModules));
      char name[16];
      std::snprintf(name, sizeof(name), "mod_%02d", m);
      int fn = 1 + static_cast<int>(rng.Below(kFunctions - 2));
      std::string def = VariantFor(rng.Below(3), fn, kFunctions);
      ASSERT_TRUE(session.ReplaceFunction(name, SynthFuncName(fn), def))
          << name << " " << SynthFuncName(fn);
      edits.push_back({name, {fn, def}});

      SessionResult rerun = session.Run();
      EXPECT_EQ(rerun.compile_failures, 0) << "seed " << seed << " step " << step;
      EXPECT_EQ(rerun.modules_analyzed, 1);

      // Cold replay: a fresh session over the original corpus with the same
      // edit sequence applied, run once from scratch.
      PipelineBuilder cold_builder = TestPipeline();
      cold_builder.ShardFunctions(2).ForEachModule(corpus);
      AnalysisSession cold = cold_builder.BuildSession();
      for (const auto& [mod, edit] : edits) {
        ASSERT_TRUE(cold.ReplaceFunction(mod, SynthFuncName(edit.first), edit.second));
      }
      SessionResult cold_result = cold.Run();
      EXPECT_EQ(Dump(rerun.findings), Dump(cold_result.findings))
          << "seed " << seed << " step " << step;

      // The re-analysis does exactly the cold session's solver work.
      ModuleStats rerun_stats = session.StatsFor(name);
      ModuleStats cold_stats = cold.StatsFor(name);
      EXPECT_EQ(rerun_stats.pointsto_propagations, cold_stats.pointsto_propagations)
          << "seed " << seed << " step " << step;
      EXPECT_EQ(rerun_stats.mayblock_evals, cold_stats.mayblock_evals);
    }
  }
}

TEST(AnalysisSession, CompileFailureIsSurfacedAndRecovers) {
  std::vector<ModuleSources> corpus = MakeCorpus(3, 1500, 48);
  AnalysisSession session = TestPipeline().ForEachModule(corpus).BuildSession();
  std::string golden = Dump(session.Run().findings);

  ASSERT_TRUE(session.ReplaceFunction(
      "mod_01", SynthFuncName(3),
      "void " + SynthFuncName(3) + "(int n) {\n  this is not mini c;\n}\n"));
  SessionResult broken = session.Run();
  EXPECT_EQ(broken.compile_failures, 1);
  const ModuleRunResult* bad = broken.ModuleFor("mod_01");
  ASSERT_NE(bad, nullptr);
  EXPECT_FALSE(bad->ok);
  EXPECT_FALSE(bad->compile_errors.empty());
  bool surfaced = false;
  for (const Finding& f : broken.findings) {
    surfaced |= f.tool == "session" && f.module == "mod_01" &&
                f.severity == FindingSeverity::kError;
  }
  EXPECT_TRUE(surfaced);
  // The other modules' cached results survived.
  EXPECT_EQ(broken.modules_reused, 2);

  // Fixing the function restores the original corpus output exactly.
  ASSERT_TRUE(session.ReplaceFunction("mod_01", SynthFuncName(3), QuietLeaf(3)));
  SessionResult fixed = session.Run();
  EXPECT_EQ(fixed.compile_failures, 0);

  AnalysisSession cold = TestPipeline().ForEachModule(corpus).BuildSession();
  ASSERT_TRUE(cold.ReplaceFunction("mod_01", SynthFuncName(3), QuietLeaf(3)));
  EXPECT_EQ(Dump(fixed.findings), Dump(cold.Run().findings));
  EXPECT_NE(Dump(fixed.findings), golden);  // the edit is visible
}

TEST(AnalysisSession, ReplaceFunctionUnknownTargets) {
  std::vector<ModuleSources> corpus = MakeCorpus(2, 1600, 48);
  AnalysisSession session = TestPipeline().ForEachModule(corpus).BuildSession();
  EXPECT_FALSE(session.ReplaceFunction("no_such_module", SynthFuncName(1), QuietLeaf(1)));
  EXPECT_FALSE(session.ReplaceFunction("mod_00", "no_such_function",
                                       "void no_such_function(int n) { pad[0] = n; }"));
  // Builtin *declarations* (e.g. msleep in the prelude) are not definitions
  // in the module sources either.
  EXPECT_FALSE(session.ReplaceFunction("mod_00", "msleep", "void msleep(int n) {}"));
}

TEST(AnalysisSession, ReplaceFunctionBodyWithBraceLiterals) {
  // Regression: the splice is driven by the lexer's token stream, so braces
  // inside string/char literals and comments can never skew the definition
  // span (the old textual scanner had to re-implement literal skipping —
  // and miscounting there splices into the wrong function).
  const char* text =
      "void alpha(int n) {\n"
      "  // stray closer } and opener { in a comment\n"
      "  /* \" unbalanced quote and } */\n"
      "  char c;\n"
      "  c = '}';\n"
      "  if (n > '{') { alpha(n - 1); }\n"
      "}\n"
      "void beta(int n) {\n"
      "  char* nullterm s;\n"
      "  s = \"}}}{{{\";\n"
      "  msleep(n);\n"
      "}\n"
      "void gamma(int n) {\n"
      "  if (n > 0) { beta(n - 1); }\n"
      "}\n";
  std::vector<ModuleSources> corpus{{"m", {SourceFile{"m.mc", text}}}};
  AnalysisSession session = TestPipeline().ForEachModule(corpus).BuildSession();
  SessionResult first = session.Run();
  ASSERT_EQ(first.compile_failures, 0)
      << first.ModuleFor("m")->compile_errors;
  auto mayblock_count = [](const SessionResult& r) {
    const ToolResult* bs = r.ModuleFor("m")->result.ResultFor("blockstop");
    return bs == nullptr ? int64_t{-1} : bs->Metric("mayblock_funcs");
  };
  // beta (msleep) and gamma (calls beta) may block.
  EXPECT_EQ(mayblock_count(first), 2);

  // Replace gamma — its definition sits AFTER the brace-laden literals, so
  // a miscounting scanner would splice into beta's string instead.
  ASSERT_TRUE(session.ReplaceFunction(
      "m", "gamma", "void gamma(int n) {\n  udelay(n);\n}\n"));
  SessionResult second = session.Run();
  ASSERT_EQ(second.compile_failures, 0)
      << second.ModuleFor("m")->compile_errors;
  EXPECT_EQ(mayblock_count(second), 1);  // only beta still blocks

  // And replace beta itself, whose own body holds the "}" literals.
  ASSERT_TRUE(session.ReplaceFunction(
      "m", "beta", "void beta(int n) {\n  udelay(n);\n}\n"));
  SessionResult third = session.Run();
  ASSERT_EQ(third.compile_failures, 0) << third.ModuleFor("m")->compile_errors;
  EXPECT_EQ(mayblock_count(third), 0);
}

TEST(AnalysisSession, AnnoDbCarriesProvenanceAndRetracts) {
  std::vector<ModuleSources> corpus = MakeCorpus(3, 1700, 48);
  AnalysisSession session = TestPipeline().ForEachModule(corpus).BuildSession();
  session.Run();

  AnnoDb db = session.ExportAnnoDb();
  ASSERT_FALSE(db.findings().empty());
  std::set<std::string> modules_seen;
  for (const Finding& f : db.findings()) {
    modules_seen.insert(f.module);
  }
  EXPECT_EQ(modules_seen, (std::set<std::string>{"mod_00", "mod_01", "mod_02"}));

  // Retraction removes exactly one module's records — findings, stamped
  // fact entries, and summary rows alike — and survives a JSON round trip,
  // so a repository consumer can do the same.
  Json j = db.ToJson();
  AnnoDb loaded = AnnoDb::FromJson(j);
  size_t total = loaded.findings().size();
  size_t mod1 = 0;
  for (const Finding& f : loaded.findings()) {
    mod1 += f.module == "mod_01" ? 1 : 0;
  }
  size_t mod1_facts = 0;
  for (const auto& [name, facts] : loaded.funcs()) {
    mod1_facts += facts.module == "mod_01" ? 1 : 0;
  }
  for (const auto& [name, facts] : loaded.records()) {
    mod1_facts += facts.module == "mod_01" ? 1 : 0;
  }
  for (const auto& [key, row] : loaded.summaries()) {
    mod1_facts += key.first == "mod_01" ? 1 : 0;
  }
  ASSERT_GT(mod1, 0u);
  ASSERT_GT(mod1_facts, 0u);
  EXPECT_EQ(loaded.RetractModule("mod_01"), static_cast<int>(mod1 + mod1_facts));
  EXPECT_EQ(loaded.findings().size(), total - mod1);
  for (const Finding& f : loaded.findings()) {
    EXPECT_NE(f.module, "mod_01");
  }
  for (const auto& [name, facts] : loaded.funcs()) {
    EXPECT_NE(facts.module, "mod_01") << name;
  }
  for (const auto& [key, row] : loaded.summaries()) {
    EXPECT_NE(key.first, "mod_01");
  }

  // After an edit, the re-exported repository reflects exactly the new
  // corpus state (retract + re-merge happens inside the session).
  ASSERT_TRUE(session.ReplaceFunction("mod_01", SynthFuncName(2), BlockingLeaf(2)));
  session.Run();
  AnnoDb db2 = session.ExportAnnoDb();
  AnalysisSession cold = TestPipeline().ForEachModule(corpus).BuildSession();
  ASSERT_TRUE(cold.ReplaceFunction("mod_01", SynthFuncName(2), BlockingLeaf(2)));
  cold.Run();
  EXPECT_EQ(db2.ToJson().Dump(), cold.ExportAnnoDb().ToJson().Dump());
}

}  // namespace
}  // namespace ivy
