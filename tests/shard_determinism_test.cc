// The sharding determinism contract, property-tested: BlockStop, StackCheck,
// LockSafe and ErrCheck must produce byte-identical findings JSON under the
// serial reference kernels and the sharded kernels the passes ship — one
// shard with no pool, and up to eight shards on a pool — across randomized
// corpora from the seeded generator in tests/synth_corpus.h. This is the
// guarantee that lets every pass run only its sharded kernel without
// invalidating golden outputs, annodb diffs, or the paper tables.
#include <gtest/gtest.h>

#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/blockstop/blockstop.h"
#include "src/driver/compiler.h"
#include "src/errcheck/errcheck.h"
#include "src/locksafe/locksafe.h"
#include "src/stackcheck/stackcheck.h"
#include "src/support/work_queue.h"
#include "src/tool/analysis_context.h"
#include "src/tool/function_sharder.h"
#include "src/tool/pipeline.h"
#include "tests/synth_corpus.h"

namespace ivy {
namespace {

// The pool a pass gives its kernel: none for one shard (the only chunk runs
// on the calling thread), else k-1 help-first workers.
std::unique_ptr<WorkQueue> PoolFor(const FunctionSharder& sharder) {
  if (sharder.shard_count() == 1) {
    return nullptr;
  }
  return std::make_unique<WorkQueue>(sharder.worker_count());
}

std::string Dump(const std::vector<Finding>& findings) {
  Json arr = Json::MakeArray();
  for (const Finding& f : findings) {
    arr.Append(f.ToJson());
  }
  return arr.Dump();
}

struct Corpus {
  std::unique_ptr<Compilation> comp;
  std::unique_ptr<AnalysisContext> ctx;
};

Corpus BuildCorpus(int functions, uint64_t seed) {
  SynthCorpusOptions opt;
  opt.functions = functions;
  opt.seed = seed;
  Corpus c;
  c.comp = CompileOne(GenerateSynthCorpus(opt), ToolConfig{});
  EXPECT_TRUE(c.comp->ok) << c.comp->Errors();
  if (c.comp->ok) {
    c.ctx = std::make_unique<AnalysisContext>(c.comp.get());
  }
  return c;
}

TEST(ShardDeterminism, SynthCorpusCompiles) {
  for (uint64_t seed : {1u, 7u, 42u}) {
    SynthCorpusOptions opt;
    opt.seed = seed;
    auto comp = CompileOne(GenerateSynthCorpus(opt), ToolConfig{});
    EXPECT_TRUE(comp->ok) << "seed " << seed << ": " << comp->Errors();
  }
}

// The passes' default: a one-shard sharder with no pool runs its chunk on the
// calling thread and reduces to the same chunks as a pooled sharder — one
// shard or four, flattened. A null pool with more shards runs every chunk
// there too, in chunk order.
TEST(ShardDeterminism, OneShardWithoutPoolRunsOnCallingThread) {
  Corpus c = BuildCorpus(48, 3);
  ASSERT_NE(c.ctx, nullptr);
  const std::vector<const FuncDecl*>& funcs = c.ctx->callgraph().DefinedFuncs();
  const std::thread::id caller = std::this_thread::get_id();
  std::mutex mu;
  std::set<std::thread::id> threads;
  auto names = [&funcs, &mu, &threads](int, size_t begin, size_t end) {
    {
      std::lock_guard<std::mutex> lock(mu);
      threads.insert(std::this_thread::get_id());
    }
    std::vector<std::string> out;
    for (size_t i = begin; i < end; ++i) {
      out.push_back(funcs[i]->name);
    }
    return out;
  };
  auto flatten = [](const std::vector<std::vector<std::string>>& chunks) {
    std::vector<std::string> flat;
    for (const auto& chunk : chunks) {
      flat.insert(flat.end(), chunk.begin(), chunk.end());
    }
    return flat;
  };

  FunctionSharder one(funcs, 1);
  ASSERT_EQ(one.shard_count(), 1);
  EXPECT_EQ(PoolFor(one), nullptr);
  std::vector<std::vector<std::string>> inline_chunks =
      one.MapChunks<std::string>(nullptr, funcs.size(), names);
  EXPECT_EQ(threads, std::set<std::thread::id>{caller});
  ASSERT_EQ(inline_chunks.size(), 1u);
  EXPECT_EQ(inline_chunks[0].size(), funcs.size());

  WorkQueue wq(2);
  EXPECT_EQ(one.MapChunks<std::string>(&wq, funcs.size(), names), inline_chunks);
  FunctionSharder four(funcs, 4);
  std::vector<std::vector<std::string>> pooled =
      four.MapChunks<std::string>(&wq, funcs.size(), names);
  ASSERT_EQ(pooled.size(), 4u);
  EXPECT_EQ(flatten(pooled), inline_chunks[0]);

  threads.clear();
  EXPECT_EQ(four.MapChunks<std::string>(nullptr, funcs.size(), names), pooled);
  EXPECT_EQ(threads, std::set<std::thread::id>{caller});
}

TEST(ShardDeterminism, BlockStopByteIdenticalAcrossStrategies) {
  for (uint64_t seed : {1u, 7u, 42u}) {
    const int functions = 48 + static_cast<int>(seed % 5) * 16;
    Corpus c = BuildCorpus(functions, seed);
    ASSERT_NE(c.ctx, nullptr);
    const CallGraph& cg = c.ctx->callgraph();

    BlockStop serial_bs(&c.comp->prog, c.comp->sema.get(), &cg);
    BlockStopReport serial = serial_bs.Run();
    std::string golden = Dump(serial.ToFindings());
    // The property must not hold vacuously: the generator plants real
    // violations and at least one silenced note (the noblock hook).
    EXPECT_FALSE(serial.violations.empty()) << "seed " << seed;
    EXPECT_FALSE(serial.silenced.empty()) << "seed " << seed;

    for (int shards : {1, 8}) {
      FunctionSharder sharder(cg.DefinedFuncs(), shards);
      std::unique_ptr<WorkQueue> wq = PoolFor(sharder);
      BlockStop bs(&c.comp->prog, c.comp->sema.get(), &cg);
      BlockStopReport report = bs.Run(sharder, wq.get());
      EXPECT_EQ(Dump(report.ToFindings()), golden)
          << "seed " << seed << " shards " << shards;
      EXPECT_EQ(report.mayblock, serial.mayblock)
          << "seed " << seed << " shards " << shards;
    }
  }
}

TEST(ShardDeterminism, StackCheckByteIdenticalAcrossStrategies) {
  for (uint64_t seed : {3u, 11u}) {
    Corpus c = BuildCorpus(64, seed);
    ASSERT_NE(c.ctx, nullptr);
    const CallGraph& cg = c.ctx->callgraph();

    // A tiny budget forces the overrun finding; recursion in the generator
    // forces the per-function warnings — both paths exercised.
    StackCheck serial_sc(&cg, &c.comp->module, /*budget=*/64);
    StackCheckReport serial = serial_sc.Run({});
    std::string golden = Dump(serial.ToFindings());
    EXPECT_FALSE(serial.ToFindings().empty()) << "seed " << seed;

    for (int shards : {1, 8}) {
      FunctionSharder sharder(cg.DefinedFuncs(), shards);
      std::unique_ptr<WorkQueue> wq = PoolFor(sharder);
      StackCheck sc(&cg, &c.comp->module, /*budget=*/64);
      StackCheckReport report = sc.Run({}, sharder, wq.get());
      EXPECT_EQ(Dump(report.ToFindings()), golden)
          << "seed " << seed << " shards " << shards;
      EXPECT_EQ(report.entry_depths, serial.entry_depths)
          << "seed " << seed << " shards " << shards;
      EXPECT_EQ(report.recursive, serial.recursive);
      EXPECT_EQ(report.worst_case, serial.worst_case);
      EXPECT_EQ(report.worst_entry, serial.worst_entry);
    }
  }
}

TEST(ShardDeterminism, ExplicitEntryListSharded) {
  Corpus c = BuildCorpus(48, 5);
  ASSERT_NE(c.ctx, nullptr);
  const CallGraph& cg = c.ctx->callgraph();
  std::vector<std::string> entries = {SynthFuncName(0), SynthFuncName(7), "no_such_entry"};
  StackCheck serial_sc(&cg, &c.comp->module);
  std::string golden = Dump(serial_sc.Run(entries).ToFindings());
  FunctionSharder sharder(cg.DefinedFuncs(), 4);
  std::unique_ptr<WorkQueue> wq = PoolFor(sharder);
  StackCheck sc(&cg, &c.comp->module);
  StackCheckReport report = sc.Run(entries, sharder, wq.get());
  EXPECT_EQ(Dump(report.ToFindings()), golden);
  EXPECT_EQ(report.entry_depths.size(), 2u);  // the bogus entry is skipped
}

TEST(ShardDeterminism, MixedDirectionBlocksByteIdentical) {
  // The benchmark's worst-case profile: chain direction alternates per
  // block, so the serial loop needs many rounds and the BFS frontier stays
  // long-lived — the strategies diverge most here if they ever will.
  SynthCorpusOptions opt;
  opt.functions = 96;
  opt.seed = 17;
  opt.fanout_span = 4;
  opt.mid_blocking_every = 0;
  opt.descending_blocks = true;
  opt.block = 16;
  auto comp = CompileOne(GenerateSynthCorpus(opt), ToolConfig{});
  ASSERT_TRUE(comp->ok) << comp->Errors();
  AnalysisContext ctx(comp.get());
  const CallGraph& cg = ctx.callgraph();

  BlockStop serial_bs(&comp->prog, comp->sema.get(), &cg);
  std::string golden = Dump(serial_bs.Run().ToFindings());
  for (int shards : {1, 3, 8}) {
    FunctionSharder sharder(cg.DefinedFuncs(), shards);
    std::unique_ptr<WorkQueue> wq = PoolFor(sharder);
    BlockStop bs(&comp->prog, comp->sema.get(), &cg);
    EXPECT_EQ(Dump(bs.Run(sharder, wq.get()).ToFindings()), golden) << "shards " << shards;
  }

  StackCheck serial_sc(&cg, &comp->module);
  std::string sc_golden = Dump(serial_sc.Run({}).ToFindings());
  FunctionSharder sharder(cg.DefinedFuncs(), 8);
  std::unique_ptr<WorkQueue> wq = PoolFor(sharder);
  StackCheck sc(&cg, &comp->module);
  EXPECT_EQ(Dump(sc.Run({}, sharder, wq.get()).ToFindings()), sc_golden);
}

TEST(ShardDeterminism, LockSafeByteIdenticalAcrossStrategies) {
  for (uint64_t seed : {1u, 7u, 42u}) {
    Corpus c = BuildCorpus(64, seed);
    ASSERT_NE(c.ctx, nullptr);
    const CallGraph& cg = c.ctx->callgraph();

    LockSafe serial_ls(&c.comp->prog, c.comp->sema.get(), &cg);
    LockSafeReport serial = serial_ls.Run();
    std::string golden = Dump(serial.ToFindings("static"));
    // The generator plants spinlock sections, so the walk sees real locks.
    EXPECT_GT(serial.locks_seen, 0) << "seed " << seed;

    for (int shards : {1, 3, 8}) {
      FunctionSharder sharder(cg.DefinedFuncs(), shards);
      std::unique_ptr<WorkQueue> wq = PoolFor(sharder);
      LockSafe ls(&c.comp->prog, c.comp->sema.get(), &cg);
      LockSafeReport report = ls.Run(sharder, wq.get());
      EXPECT_EQ(Dump(report.ToFindings("static")), golden)
          << "seed " << seed << " shards " << shards;
      // The full edge list (order included) matches the serial first-seen
      // order, not just the findings derived from it.
      ASSERT_EQ(report.edges.size(), serial.edges.size());
      for (size_t i = 0; i < report.edges.size(); ++i) {
        EXPECT_EQ(report.edges[i].held, serial.edges[i].held);
        EXPECT_EQ(report.edges[i].acquired, serial.edges[i].acquired);
        EXPECT_EQ(report.edges[i].func, serial.edges[i].func);
      }
      EXPECT_EQ(report.locks_seen, serial.locks_seen);
      EXPECT_EQ(report.irq_unsafe_locks, serial.irq_unsafe_locks);
    }
  }
}

TEST(ShardDeterminism, ErrCheckByteIdenticalAcrossStrategies) {
  // The synth corpus has no error-returning functions, so extend it with an
  // err-heavy tail: annotated and inferred error sources, discarded and
  // never-tested results, plus checked sites.
  for (uint64_t seed : {5u, 13u}) {
    SynthCorpusOptions opt;
    opt.functions = 48;
    opt.seed = seed;
    std::string src = GenerateSynthCorpus(opt);
    src += R"(
int try_alloc(int n) errcode(-12) { if (n > 4) { return -12; } return 0; }
int try_map(int n) { if (n > 2) { return -22; } return n; }
void careless_a(int n) { try_alloc(n); }
void careless_b(int n) { int r = try_map(n); r = r + 1; }
int careful(int n) {
  int r = try_alloc(n);
  if (r < 0) { return r; }
  return try_map(n);
}
)";
    auto comp = CompileOne(src, ToolConfig{});
    ASSERT_TRUE(comp->ok) << comp->Errors();
    AnalysisContext ctx(comp.get());
    const CallGraph& cg = ctx.callgraph();

    ErrCheck serial_ec(&comp->prog, comp->sema.get(), &cg);
    ErrCheckReport serial = serial_ec.Run();
    std::string golden = Dump(serial.ToFindings());
    EXPECT_FALSE(serial.findings.empty()) << "seed " << seed;
    EXPECT_GT(serial.annotated_funcs, 0);
    EXPECT_GT(serial.inferred_funcs, 0);
    EXPECT_GT(serial.checked_sites, 0);

    for (int shards : {1, 3, 8}) {
      FunctionSharder sharder(cg.DefinedFuncs(), shards);
      std::unique_ptr<WorkQueue> wq = PoolFor(sharder);
      ErrCheck ec(&comp->prog, comp->sema.get(), &cg);
      ErrCheckReport report = ec.Run(sharder, wq.get());
      EXPECT_EQ(Dump(report.ToFindings()), golden)
          << "seed " << seed << " shards " << shards;
      EXPECT_EQ(report.err_returning_funcs, serial.err_returning_funcs);
      EXPECT_EQ(report.annotated_funcs, serial.annotated_funcs);
      EXPECT_EQ(report.inferred_funcs, serial.inferred_funcs);
      EXPECT_EQ(report.checked_sites, serial.checked_sites);
    }
  }
}

TEST(ShardDeterminism, SharedPoolAcrossPassesByteIdentical) {
  // All four sharded passes on one shared pool (what a session attaches)
  // must match the pool-free one-shard kernels.
  SynthCorpusOptions opt;
  opt.functions = 72;
  opt.seed = 21;
  std::string src = GenerateSynthCorpus(opt);

  auto findings_with = [&src](int shards) {
    Pipeline p = PipelineBuilder()
                     .Tool("blockstop")
                     .Tool("stackcheck")
                     .Tool("errcheck")
                     .Tool("locksafe")
                     .ShardFunctions(shards)
                     .Build();
    PipelineRun run = p.CompileAndRun({SourceFile{"synth.mc", src}});
    EXPECT_TRUE(run.comp->ok) << run.comp->Errors();
    return Dump(run.result.findings);
  };

  std::string one_shard = findings_with(1);
  EXPECT_FALSE(one_shard.empty());
  EXPECT_EQ(findings_with(4), one_shard);
  EXPECT_EQ(findings_with(0), one_shard);
}

TEST(ShardDeterminism, PipelineShardFunctionsByteIdentical) {
  SynthCorpusOptions opt;
  opt.functions = 72;
  opt.seed = 9;
  std::string src = GenerateSynthCorpus(opt);

  auto findings_with = [&src](int shards) {
    Pipeline p = PipelineBuilder()
                     .Tool("blockstop")
                     .Tool("stackcheck")
                     .Tool("errcheck")
                     .ShardFunctions(shards)
                     .Build();
    PipelineRun run = p.CompileAndRun({SourceFile{"synth.mc", src}});
    EXPECT_TRUE(run.comp->ok) << run.comp->Errors();
    return Dump(run.result.findings);
  };

  std::string one_shard = findings_with(1);
  EXPECT_FALSE(one_shard.empty());
  EXPECT_EQ(findings_with(8), one_shard);
  EXPECT_EQ(findings_with(0), one_shard);  // 0 = hardware concurrency
}

}  // namespace
}  // namespace ivy
