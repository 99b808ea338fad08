// The cross-module link stage (AnalysisSession::RunLinked): corpus-level
// fact fixpoint via annodb summaries.
//
//   1. Linked == merged-source: on corpora whose modules share facts only
//      through declared extern functions, the converged linked findings
//      (canonically rendered and sorted — the linked merge orders by module
//      first, a merged program by pass) equal the single merged-source
//      program's, including cross-module may-block propagation, atomic-entry
//      contexts, irq-reachability, error-return facts, fn-ptr registration
//      through extern calls, and cross-module recursion. StackCheck's
//      per-report budget-overrun finding is the one shape that cannot match
//      (one report per module vs one merged report), so the property runs
//      with an unreachable budget and checks the depth maps directly.
//   2. Determinism: converged findings are byte-identical across module
//      registration order and shard counts.
//   3. Incremental relink == cold relink, and the fixpoint re-analyzes only
//      the cross-module component of the edit.
//   4. Convergence: the fixpoint settles without oscillation and reports
//      its round count.
//   5. The link memo: memoized relinks — around a cross-module cycle, on a
//      revert, and over a seeded random edit sequence — equal a cold session
//      byte for byte while re-analyzing fewer modules.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/annodb/annodb.h"
#include "src/stackcheck/stackcheck.h"
#include "src/tool/pipeline.h"
#include "src/tool/session.h"
#include "tests/synth_corpus.h"

namespace ivy {
namespace {

constexpr int64_t kHugeBudget = int64_t{1} << 40;

PipelineBuilder LinkedPipeline(int shards = 1) {
  PipelineBuilder b;
  ToolOptions sc;
  sc.SetInt("budget", kHugeBudget);
  b.Tool("blockstop").Tool("stackcheck", sc).Tool("errcheck").Tool("locksafe");
  b.ShardFunctions(shards);
  return b;
}

std::string Dump(const std::vector<Finding>& findings) {
  Json arr = Json::MakeArray();
  for (const Finding& f : findings) {
    arr.Append(f.ToJson());
  }
  return arr.Dump();
}

// Canonical rendering: tool/severity/rendered-location/message/witness.
// Rendered locations use file *names*, which match between a module's own
// compilation and the merged program; raw file ids do not.
std::vector<std::string> CanonSorted(const std::vector<Finding>& findings,
                                     const SourceManager* sm) {
  std::vector<std::string> out;
  out.reserve(findings.size());
  for (const Finding& f : findings) {
    out.push_back(f.ToString(sm));
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::string> LinkedCanon(AnalysisSession& session, const SessionResult& result) {
  std::vector<std::string> all;
  for (const ModuleRunResult& mr : result.modules) {
    const Compilation* comp = session.CompilationFor(mr.module);
    EXPECT_NE(comp, nullptr) << mr.module;
    std::vector<std::string> canon =
        CanonSorted(mr.result.findings, comp != nullptr ? &comp->sm : nullptr);
    all.insert(all.end(), canon.begin(), canon.end());
  }
  std::sort(all.begin(), all.end());
  return all;
}

TEST(SessionLinked, LinkedMatchesMergedSource) {
  for (uint64_t seed : {3u, 17u}) {
    LinkedCorpusOptions opt;
    opt.modules = 4;
    opt.functions = 32;
    opt.seed = seed;
    std::vector<ModuleSources> corpus = GenerateLinkedCorpus(opt);

    AnalysisSession session = LinkedPipeline().ForEachModule(corpus).BuildSession();
    SessionResult linked = session.RunLinked();
    ASSERT_EQ(linked.compile_failures, 0) << "seed " << seed;
    ASSERT_TRUE(session.link_stats().converged) << "seed " << seed;
    EXPECT_GE(session.link_stats().rounds, 2) << "seed " << seed;
    EXPECT_GT(session.link_stats().cross_edges, 0) << "seed " << seed;
    // No session-level findings (no multi-definition conflicts, converged).
    for (const Finding& f : linked.findings) {
      EXPECT_NE(f.tool, "session") << f.message;
    }

    Pipeline merged_pipeline = LinkedPipeline().Build();
    PipelineRun merged = merged_pipeline.CompileAndRun(MergedLinkedSources(corpus));
    ASSERT_TRUE(merged.comp->ok) << "seed " << seed << ": " << merged.comp->Errors();

    std::vector<std::string> linked_canon = LinkedCanon(session, linked);
    std::vector<std::string> merged_canon =
        CanonSorted(merged.result.findings, &merged.comp->sm);
    EXPECT_FALSE(merged_canon.empty());
    ASSERT_EQ(linked_canon, merged_canon) << "seed " << seed;

    // StackCheck detail: corpus-level depths and the recursive set must
    // match the merged condensation function by function.
    std::map<std::string, int64_t> linked_depths;
    std::set<std::string> linked_recursive;
    for (const ModuleRunResult& mr : linked.modules) {
      const ToolResult* r = mr.result.ResultFor("stackcheck");
      ASSERT_NE(r, nullptr);
      const StackCheckReport* rep = r->DetailAs<StackCheckReport>();
      ASSERT_NE(rep, nullptr);
      linked_depths.insert(rep->entry_depths.begin(), rep->entry_depths.end());
      linked_recursive.insert(rep->recursive.begin(), rep->recursive.end());
    }
    const StackCheckReport* merged_rep =
        merged.result.ResultFor("stackcheck")->DetailAs<StackCheckReport>();
    ASSERT_NE(merged_rep, nullptr);
    EXPECT_EQ(linked_depths, merged_rep->entry_depths) << "seed " << seed;
    EXPECT_EQ(linked_recursive, merged_rep->recursive) << "seed " << seed;
    EXPECT_FALSE(linked_recursive.empty());  // the cross-module cycle is real
  }
}

TEST(SessionLinked, ConvergedFindingsDeterministic) {
  LinkedCorpusOptions opt;
  opt.modules = 4;
  opt.functions = 28;
  opt.seed = 5;
  std::vector<ModuleSources> corpus = GenerateLinkedCorpus(opt);

  AnalysisSession forward = LinkedPipeline().ForEachModule(corpus).BuildSession();
  std::string golden = Dump(forward.RunLinked().findings);
  ASSERT_TRUE(forward.link_stats().converged);
  EXPECT_FALSE(golden.empty());

  std::vector<ModuleSources> reversed(corpus.rbegin(), corpus.rend());
  AnalysisSession backward = LinkedPipeline().ForEachModule(reversed).BuildSession();
  EXPECT_EQ(Dump(backward.RunLinked().findings), golden);

  AnalysisSession sharded = LinkedPipeline(3).ForEachModule(corpus).BuildSession();
  EXPECT_EQ(Dump(sharded.RunLinked().findings), golden);
}

TEST(SessionLinked, IncrementalRelinkMatchesColdAndStaysInComponent) {
  LinkedCorpusOptions opt;
  opt.modules = 3;
  opt.functions = 24;
  opt.seed = 9;
  std::vector<ModuleSources> corpus = GenerateLinkedCorpus(opt);
  // An isolated module: no cross calls in or out, so it sits in its own
  // link component and must never be re-analyzed by other modules' edits.
  SynthCorpusOptions iso;
  iso.functions = 16;
  iso.seed = 77;
  iso.prefix = "iso_";
  corpus.push_back(ModuleSources{"zz_iso", {SourceFile{"zz_iso.mc", GenerateSynthCorpus(iso)}}});

  AnalysisSession session = LinkedPipeline().ForEachModule(corpus).BuildSession();
  session.RunLinked();
  ASSERT_TRUE(session.link_stats().converged);

  // Re-linking an unchanged corpus is one cheap round: nothing re-analyzed.
  SessionResult idle = session.RunLinked();
  EXPECT_EQ(session.link_stats().rounds, 1);
  EXPECT_EQ(session.link_stats().module_analyses, 0);
  EXPECT_EQ(idle.modules_reused, static_cast<int>(corpus.size()));

  // Edit inside the linked component: make a mid-chain function of mod_01 a
  // blocking leaf. Cross importers re-converge; the isolated module reuses
  // its cached result through every round.
  const std::string fn = SynthFuncName(LinkedModulePrefix(1), 5);
  const std::string def =
      "void " + fn + "(int n) {\n  int pad[16]; pad[0] = n;\n  msleep(n);\n}\n";
  ASSERT_TRUE(session.ReplaceFunction("mod_01", fn, def));
  SessionResult warm = session.RunLinked();
  ASSERT_TRUE(session.link_stats().converged);
  EXPECT_LE(session.link_stats().module_analyses,
            session.link_stats().rounds * (static_cast<int>(corpus.size()) - 1));

  AnalysisSession cold = LinkedPipeline().ForEachModule(corpus).BuildSession();
  ASSERT_TRUE(cold.ReplaceFunction("mod_01", fn, def));
  SessionResult cold_result = cold.RunLinked();
  ASSERT_TRUE(cold.link_stats().converged);
  EXPECT_EQ(Dump(warm.findings), Dump(cold_result.findings));

  // Editing only the isolated module re-analyzes only it.
  ASSERT_TRUE(session.ReplaceFunction("zz_iso", SynthFuncName("iso_", 3),
                                      "void " + SynthFuncName("iso_", 3) +
                                          "(int n) {\n  int pad[4]; pad[0] = n;\n  udelay(1);\n}\n"));
  session.RunLinked();
  ASSERT_TRUE(session.link_stats().converged);
  EXPECT_EQ(session.link_stats().module_analyses, 1);
}

TEST(SessionLinked, SummariesExportedAndRetractable) {
  LinkedCorpusOptions opt;
  opt.modules = 3;
  opt.functions = 24;
  opt.seed = 21;
  std::vector<ModuleSources> corpus = GenerateLinkedCorpus(opt);
  AnalysisSession session = LinkedPipeline().ForEachModule(corpus).BuildSession();
  session.RunLinked();
  ASSERT_TRUE(session.link_stats().converged);

  // The converged table carries both halves of the exchange.
  const AnnoDb& table = session.link_table();
  ASSERT_FALSE(table.summaries().empty());
  bool saw_mayblock_definer = false;
  bool saw_usage_atomic = false;
  bool saw_param_points = false;
  bool saw_stack = false;
  for (const auto& [key, row] : table.summaries()) {
    if (row.defined && row.may_block && !row.block_witness.empty()) {
      saw_mayblock_definer = true;
    }
    if (row.defined && row.stack_below >= 0) {
      saw_stack = true;
    }
    if (!row.defined && row.entered_atomic) {
      saw_usage_atomic = true;
    }
    if (!row.defined && !row.param_points.empty()) {
      saw_param_points = true;
    }
  }
  EXPECT_TRUE(saw_mayblock_definer);
  EXPECT_TRUE(saw_usage_atomic);
  EXPECT_TRUE(saw_param_points);
  EXPECT_TRUE(saw_stack);

  // The repository export includes the table, round-trips through JSON, and
  // retraction drops exactly one module's rows (facts and summaries both).
  AnnoDb db = session.ExportAnnoDb();
  ASSERT_FALSE(db.summaries().empty());
  std::string err;
  AnnoDb loaded = AnnoDb::FromJson(Json::Parse(db.ToJson().Dump(), &err));
  ASSERT_TRUE(err.empty()) << err;
  EXPECT_EQ(loaded.ToJson().Dump(), db.ToJson().Dump());

  size_t before = loaded.summaries().size();
  size_t mod1_rows = 0;
  for (const auto& [key, row] : loaded.summaries()) {
    mod1_rows += key.first == "mod_01" ? 1 : 0;
  }
  ASSERT_GT(mod1_rows, 0u);
  loaded.RetractModule("mod_01");
  EXPECT_EQ(loaded.summaries().size(), before - mod1_rows);
  for (const auto& [key, row] : loaded.summaries()) {
    EXPECT_NE(key.first, "mod_01");
  }
  for (const auto& [name, facts] : loaded.funcs()) {
    EXPECT_NE(facts.module, "mod_01") << name;
  }

  // Re-merging the same export is idempotent for summary rows.
  AnnoDb twice = session.ExportAnnoDb();
  std::string once_dump = twice.ToJson().Dump();
  twice.Merge(session.ExportAnnoDb());
  EXPECT_EQ(twice.ToJson().Dump(), once_dump);
}

TEST(SessionLinked, RemoveModuleRetractsItsFactsFromTheTable) {
  LinkedCorpusOptions opt;
  opt.modules = 3;
  opt.functions = 24;
  opt.seed = 41;
  std::vector<ModuleSources> corpus = GenerateLinkedCorpus(opt);
  AnalysisSession session = LinkedPipeline().ForEachModule(corpus).BuildSession();
  session.RunLinked();
  ASSERT_TRUE(session.link_stats().converged);

  // Dropping mod_02 must drop its facts: the relinked corpus equals a cold
  // two-module link, not the stale three-module fixpoint.
  ASSERT_TRUE(session.RemoveModule("mod_02"));
  SessionResult relinked = session.RunLinked();
  ASSERT_TRUE(session.link_stats().converged);
  for (const auto& [key, row] : session.link_table().summaries()) {
    EXPECT_NE(key.first, "mod_02");
  }

  corpus.pop_back();
  AnalysisSession cold = LinkedPipeline().ForEachModule(corpus).BuildSession();
  EXPECT_EQ(Dump(relinked.findings), Dump(cold.RunLinked().findings));
}

TEST(SessionLinked, UnlinkedRunStaysIndependent) {
  // Run() (no link stage) must keep its historical semantics: modules
  // analyzed as independent programs, no imported facts.
  LinkedCorpusOptions opt;
  opt.modules = 2;
  opt.functions = 20;
  opt.seed = 33;
  std::vector<ModuleSources> corpus = GenerateLinkedCorpus(opt);

  AnalysisSession plain = LinkedPipeline().ForEachModule(corpus).BuildSession();
  SessionResult unlinked = plain.Run();
  AnalysisSession linked = LinkedPipeline().ForEachModule(corpus).BuildSession();
  SessionResult converged = linked.RunLinked();

  // The linked run sees strictly more: cross-module facts add findings.
  EXPECT_NE(Dump(unlinked.findings), Dump(converged.findings));
  EXPECT_GT(converged.findings.size(), unlinked.findings.size());
}


// ---------------------------------------------------------------------------
// The link memo (early cutoff): memoized relinks must be indistinguishable
// from a cold session over the same sources — findings and the canonical
// link table byte for byte — while re-analyzing far fewer modules.
// ---------------------------------------------------------------------------

std::string TableCanon(const AnalysisSession& session) {
  std::string out;
  for (const auto& [key, row] : session.link_table().summaries()) {
    out += row.Canonical();
    out += '\n';
  }
  return out;
}

// The span of a generated function's definition in a module's text: from
// the start of the line that names it through its closing brace — what
// AnalysisSession::ReplaceFunction replaces.
std::pair<size_t, size_t> DefinitionSpan(const std::string& text, const std::string& fn) {
  const std::string head = "void " + fn + "(int n)";
  size_t pos = 0;
  while ((pos = text.find(head, pos)) != std::string::npos) {
    const size_t eol = text.find('\n', pos);
    if ((pos == 0 || text[pos - 1] == '\n') && eol != std::string::npos && text[eol - 1] != ';') {
      return {pos, text.find("\n}", pos) + 2};
    }
    pos += head.size();
  }
  ADD_FAILURE() << "no definition of " << fn;
  return {0, 0};
}

std::string DefinitionOf(const std::string& text, const std::string& fn) {
  auto [begin, end] = DefinitionSpan(text, fn);
  return text.substr(begin, end - begin);
}

std::string ReplaceDefinition(const std::string& text, const std::string& fn,
                              std::string def) {
  auto [begin, end] = DefinitionSpan(text, fn);
  while (!def.empty() && (def.back() == '\n' || def.back() == ' ')) {
    def.pop_back();
  }
  return text.substr(0, begin) + def + text.substr(end);
}

// A store file under the test temp dir, removed on both ends.
class TempStore {
 public:
  explicit TempStore(const std::string& name)
      : path_(::testing::TempDir() + "ivy_session_linked_" + name + ".store") {
    Scrub();
  }
  ~TempStore() { Scrub(); }
  const std::string& get() const { return path_; }

 private:
  void Scrub() {
    std::remove(path_.c_str());
    std::remove((path_ + ".lock").c_str());
  }
  std::string path_;
};

// Links a fresh session over `corpus` and checks `session` (just relinked,
// with `result`) against it. Returns the cold session's module analyses.
int ExpectMatchesCold(const AnalysisSession& session, const SessionResult& result,
                      const std::vector<ModuleSources>& corpus, const std::string& step) {
  AnalysisSession cold = LinkedPipeline().ForEachModule(corpus).BuildSession();
  SessionResult cold_result = cold.RunLinked();
  EXPECT_TRUE(cold.link_stats().converged) << step;
  EXPECT_TRUE(session.link_stats().converged) << step;
  EXPECT_EQ(Dump(result.findings), Dump(cold_result.findings)) << step;
  EXPECT_EQ(TableCanon(session), TableCanon(cold)) << step;
  // The budget is unreachable, so StackCheck's imported stack facts show in
  // its depth maps, not in findings: compare those too.
  EXPECT_EQ(result.modules.size(), cold_result.modules.size()) << step;
  for (size_t i = 0; i < result.modules.size() && i < cold_result.modules.size(); ++i) {
    const ToolResult* got = result.modules[i].result.ResultFor("stackcheck");
    const ToolResult* want = cold_result.modules[i].result.ResultFor("stackcheck");
    if (got == nullptr || want == nullptr) {
      EXPECT_EQ(got, want) << step;
      continue;
    }
    EXPECT_EQ(got->DetailAs<StackCheckReport>()->entry_depths,
              want->DetailAs<StackCheckReport>()->entry_depths)
        << step << " " << result.modules[i].module;
  }
  return cold.link_stats().module_analyses;
}

TEST(SessionLinkedMemo, RetractionStaysExactAroundACycle) {
  // a_cyc -> b_cyc_back -> a_cyc across two modules; the only blocking call
  // on the cycle is a_leaf's. Both cycle rows may block, so both spinlocked
  // entries are BlockStop errors.
  const std::string mod_a =
      "int a_lk;\n"
      "void b_cyc_back(int n);\n"
      "void a_leaf(int n) {\n  msleep(n);\n}\n"
      "void a_cyc(int n) {\n  if (n > 0) { b_cyc_back(n - 1); }\n  a_leaf(n);\n}\n"
      "void a_entry(int n) {\n  spin_lock(&a_lk);\n  a_cyc(n);\n  spin_unlock(&a_lk);\n}\n";
  const std::string mod_b =
      "int b_lk;\n"
      "void a_cyc(int n);\n"
      "void b_cyc_back(int n) {\n  if (n > 0) { a_cyc(n - 1); }\n}\n"
      "void b_entry(int n) {\n  spin_lock(&b_lk);\n  b_cyc_back(n);\n  spin_unlock(&b_lk);\n}\n";
  std::vector<ModuleSources> corpus = {{"mod_a", {SourceFile{"mod_a.mc", mod_a}}},
                                       {"mod_b", {SourceFile{"mod_b.mc", mod_b}}}};
  AnalysisSession session = LinkedPipeline().ForEachModule(corpus).BuildSession();
  SessionResult before = session.RunLinked();
  ASSERT_TRUE(session.link_stats().converged);
  const AnnoDb& table = session.link_table();
  ASSERT_NE(table.summaries().count({"mod_a", "a_cyc"}), 0u);
  ASSERT_NE(table.summaries().count({"mod_b", "b_cyc_back"}), 0u);
  EXPECT_TRUE(table.summaries().at({"mod_a", "a_cyc"}).may_block);
  EXPECT_TRUE(table.summaries().at({"mod_b", "b_cyc_back"}).may_block);
  EXPECT_TRUE(table.summaries().at({"mod_b", "b_cyc_back"}).cross_recursive);
  EXPECT_GE(before.ErrorCount(), 2);

  // Edit the leaf away. A monotone relink seeded with the old rows would
  // keep "may block" alive around the cycle; the memoized replay must not.
  const std::string leaf = "void a_leaf(int n) {\n  udelay(n);\n}\n";
  ASSERT_TRUE(session.ReplaceFunction("mod_a", "a_leaf", leaf));
  SessionResult after = session.RunLinked();
  EXPECT_GT(session.link_stats().memo_hits, 0);
  EXPECT_FALSE(table.summaries().at({"mod_a", "a_cyc"}).may_block);
  EXPECT_FALSE(table.summaries().at({"mod_b", "b_cyc_back"}).may_block);
  corpus[0].files[0].text = ReplaceDefinition(mod_a, "a_leaf", leaf);
  ExpectMatchesCold(session, after, corpus, "leaf edited away");
  EXPECT_EQ(after.ErrorCount(), 0);
}

TEST(SessionLinkedMemo, RevertReplaysFromTheMemo) {
  LinkedCorpusOptions opt;
  opt.modules = 4;
  opt.functions = 24;
  opt.seed = 13;
  std::vector<ModuleSources> corpus = GenerateLinkedCorpus(opt);
  AnalysisSession session = LinkedPipeline().ForEachModule(corpus).BuildSession();
  SessionResult original = session.RunLinked();
  ASSERT_TRUE(session.link_stats().converged);
  const int cold_analyses = session.link_stats().module_analyses;
  const std::string original_findings = Dump(original.findings);
  const std::string original_table = TableCanon(session);

  // A -> B: a mid-chain function of mod_01 becomes a blocking leaf.
  const std::string fn = SynthFuncName(LinkedModulePrefix(1), 7);
  const std::string& text = corpus[1].files[0].text;
  const std::string original_def = DefinitionOf(text, fn);
  const std::string b_def = "void " + fn + "(int n) {\n  int pad[8]; pad[0] = n;\n  msleep(n);\n}\n";
  ASSERT_TRUE(session.ReplaceFunction("mod_01", fn, b_def));
  SessionResult edited = session.RunLinked();
  std::vector<ModuleSources> b_corpus = corpus;
  b_corpus[1].files[0].text = ReplaceDefinition(text, fn, b_def);
  ExpectMatchesCold(session, edited, b_corpus, "A -> B");
  EXPECT_GT(session.link_stats().memo_hits, 0);

  // B -> A: the original sources, so the original cold bytes.
  ASSERT_TRUE(session.ReplaceFunction("mod_01", fn, original_def));
  SessionResult reverted = session.RunLinked();
  ASSERT_TRUE(session.link_stats().converged);
  EXPECT_GT(session.link_stats().memo_hits, 0);
  EXPECT_LT(session.link_stats().module_analyses, cold_analyses);
  EXPECT_EQ(Dump(reverted.findings), original_findings);
  EXPECT_EQ(TableCanon(session), original_table);
}

TEST(SessionLinkedMemo, RandomEditSequenceMatchesColdAfterEveryRelink) {
  LinkedCorpusOptions opt;
  opt.modules = 4;
  opt.functions = 24;
  opt.seed = 29;
  const std::vector<ModuleSources> original = GenerateLinkedCorpus(opt);
  std::vector<ModuleSources> corpus = original;  // the sources as edited so far
  AnalysisSession session = LinkedPipeline().ForEachModule(corpus).BuildSession();
  session.RunLinked();
  ASSERT_TRUE(session.link_stats().converged);
  TempStore store("memo_random_edits");

  Rng rng(0x5eed);
  int memo_hits = 0;
  int analyses = 0;
  int cold_analyses = 0;
  std::vector<ModuleSources> removed;  // modules taken out, to add back later
  auto module_at = [&corpus](const std::string& name) -> ModuleSources& {
    for (ModuleSources& m : corpus) {
      if (m.name == name) {
        return m;
      }
    }
    ADD_FAILURE() << name;
    return corpus.front();
  };
  // Applies one function edit to the session and to the mirror.
  auto edit = [&](const std::string& mod, const std::string& fn, const std::string& def) {
    ASSERT_TRUE(session.ReplaceFunction(mod, fn, def)) << mod << "/" << fn;
    std::string& text = module_at(mod).files[0].text;
    text = ReplaceDefinition(text, fn, def);
  };
  // Fact-changing edits weigh the most: they are what moves the fixpoint.
  enum Kind { kFact, kPadding, kFrame, kRevert, kModule, kStore };
  const Kind kinds[] = {kFact, kFact, kFact, kPadding, kPadding, kFrame, kRevert, kModule, kStore};
  for (int step = 0; step < 30; ++step) {
    const ModuleSources& target = corpus[rng.Below(corpus.size())];
    const std::string mod = target.name;
    const std::string px = "m" + mod.substr(4) + "_";
    const std::string fn = SynthFuncName(px, static_cast<int>(rng.Below(opt.functions)));
    const Kind kind = kinds[rng.Below(sizeof(kinds) / sizeof(kinds[0]))];
    std::string what;
    if (kind == kFact) {
      what = "fact";
      edit(mod, fn, "void " + fn + "(int n) {\n  int pad[8]; pad[0] = n;\n  " +
                        (rng.Chance(1, 2) ? "msleep(n)" : "udelay(1)") + ";\n}\n");
    } else if (kind == kPadding) {
      what = "padding";
      std::string def = DefinitionOf(target.files[0].text, fn);
      const size_t at = def.find("pad[0] = n");
      ASSERT_NE(at, std::string::npos) << def;
      def.replace(at, 10, "pad[0] = n + " + std::to_string(step));
      edit(mod, fn, def);
    } else if (kind == kFrame) {
      what = "frame";
      edit(mod, fn, "void " + fn + "(int n) {\n  int pad[" + std::to_string(4 + step) +
                        "]; pad[0] = n;\n}\n");
    } else if (kind == kRevert) {
      what = "revert";
      for (const ModuleSources& m : original) {
        if (m.name == mod) {
          ASSERT_TRUE(session.ReplaceModuleSources(mod, m.files));
          module_at(mod).files = m.files;
        }
      }
    } else if (kind == kModule) {
      if (removed.empty() && corpus.size() > 2) {
        what = "remove";
        ASSERT_TRUE(session.RemoveModule(mod));
        for (size_t i = 0; i < corpus.size(); ++i) {
          if (corpus[i].name == mod) {
            removed.push_back(corpus[i]);
            corpus.erase(corpus.begin() + static_cast<std::ptrdiff_t>(i));
            break;
          }
        }
      } else if (!removed.empty()) {
        what = "add";
        session.AddModule(removed.back());
        corpus.push_back(removed.back());
        std::sort(corpus.begin(), corpus.end(),
                  [](const ModuleSources& a, const ModuleSources& b) { return a.name < b.name; });
        removed.pop_back();
      } else {
        continue;
      }
    } else {
      what = "store+fact";
      std::string err;
      ASSERT_TRUE(session.SaveStore(store.get(), &err)) << err;
      ASSERT_TRUE(session.LoadStore(store.get(), &err)) << err;
      edit(mod, fn, "void " + fn + "(int n) {\n  int pad[8]; pad[0] = n;\n  msleep(n);\n}\n");
    }
    SessionResult result = session.RunLinked();
    memo_hits += session.link_stats().memo_hits;
    analyses += session.link_stats().module_analyses;
    cold_analyses += ExpectMatchesCold(session, result, corpus,
                                       "step " + std::to_string(step) + " (" + what + " " +
                                           mod + "/" + fn + ")");
    if (HasFailure()) {
      return;
    }
  }
  EXPECT_GT(memo_hits, 0);
  EXPECT_LT(analyses, cold_analyses);
}

}  // namespace
}  // namespace ivy
