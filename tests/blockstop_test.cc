// BlockStop unit tests (§2.3): blocking-set propagation, GFP_WAIT handling,
// IRQ-state tracking, interrupt contexts, and the noblock run-time-check
// silencing semantics.
#include <gtest/gtest.h>

#include "src/blockstop/blockstop.h"
#include "src/driver/compiler.h"
#include "src/tool/analysis_context.h"
#include "src/tool/function_sharder.h"

namespace ivy {
namespace {

std::string Dump(const std::vector<Finding>& findings) {
  Json arr = Json::MakeArray();
  for (const Finding& f : findings) {
    arr.Append(f.ToJson());
  }
  return arr.Dump();
}

// Runs the kernel the blockstop pass ships — one shard, no pool — and checks
// it against the serial reference Run() before the scenario asserts on it.
BlockStopReport Analyze(const std::string& src, bool field_sensitive = false) {
  auto comp = CompileOne(src, ToolConfig{});
  EXPECT_TRUE(comp->ok) << comp->Errors();
  AnalysisContext ctx(comp.get(), field_sensitive);
  const CallGraph& cg = ctx.callgraph();
  BlockStop reference(&comp->prog, comp->sema.get(), &cg);
  BlockStopReport expected = reference.Run();
  BlockStop bs(&comp->prog, comp->sema.get(), &cg);
  BlockStopReport shipped = bs.Run(FunctionSharder(cg.DefinedFuncs(), 1), nullptr);
  EXPECT_EQ(Dump(shipped.ToFindings()), Dump(expected.ToFindings()));
  EXPECT_EQ(shipped.mayblock, expected.mayblock);
  return shipped;
}

TEST(BlockStop, DirectBlockingCallUnderSpinlock) {
  const char* src = R"(
    int lk;
    void bad(void) {
      spin_lock(&lk);
      msleep(10);
      spin_unlock(&lk);
    }
  )";
  BlockStopReport r = Analyze(src);
  ASSERT_EQ(r.violations.size(), 1u);
  EXPECT_EQ(r.violations[0].callee, "msleep");
}

TEST(BlockStop, BlockingAfterUnlockIsFine) {
  const char* src = R"(
    int lk;
    void good(void) {
      spin_lock(&lk);
      spin_unlock(&lk);
      msleep(10);
    }
  )";
  EXPECT_TRUE(Analyze(src).violations.empty());
}

TEST(BlockStop, IrqDisableRegionTracked) {
  const char* src = R"(
    void bad(void) {
      local_irq_disable();
      schedule();
      local_irq_enable();
    }
    void good(void) {
      local_irq_disable();
      local_irq_enable();
      schedule();
    }
  )";
  BlockStopReport r = Analyze(src);
  ASSERT_EQ(r.violations.size(), 1u);
  EXPECT_EQ(r.violations[0].caller, "bad");
}

TEST(BlockStop, TransitiveBlockingPropagates) {
  const char* src = R"(
    int lk;
    void leaf(void) { wait_event(&lk); }
    void mid(void) { leaf(); }
    void outer(void) {
      spin_lock(&lk);
      mid();
      spin_unlock(&lk);
    }
  )";
  BlockStopReport r = Analyze(src);
  // The outer violation plus the cascade through the atomic context
  // propagated into mid and leaf (each call site is reported once).
  ASSERT_GE(r.violations.size(), 1u);
  bool outer_found = false;
  for (const BlockingViolation& v : r.violations) {
    if (v.caller == "outer" && v.callee == "mid") {
      outer_found = true;
    }
  }
  EXPECT_TRUE(outer_found);
  EXPECT_TRUE(r.mayblock.count("mid") == 1);
  EXPECT_TRUE(r.mayblock.count("leaf") == 1);
}

TEST(BlockStop, GfpWaitConstantsDecideKmalloc) {
  const char* src = R"(
    int lk;
    void atomic_alloc_ok(void) {
      spin_lock(&lk);
      void* p = kmalloc(64, GFP_ATOMIC);
      kfree(p);
      spin_unlock(&lk);
    }
    void wait_alloc_bad(void) {
      spin_lock(&lk);
      void* p = kmalloc(64, GFP_KERNEL);
      kfree(p);
      spin_unlock(&lk);
    }
  )";
  BlockStopReport r = Analyze(src);
  ASSERT_EQ(r.violations.size(), 1u);
  EXPECT_EQ(r.violations[0].caller, "wait_alloc_bad");
}

TEST(BlockStop, BlockingIfWrapperStaysConditional) {
  // A kmalloc wrapper annotated blocking_if(flags) is decided at ITS call
  // sites, not at the kmalloc call inside it.
  const char* src = R"(
    int lk;
    void* my_alloc(int size, int flags) blocking_if(flags) {
      return kmalloc(size, flags);
    }
    void ok(void) {
      spin_lock(&lk);
      void* p = my_alloc(32, GFP_ATOMIC);
      kfree(p);
      spin_unlock(&lk);
    }
    void bad(void) {
      spin_lock(&lk);
      void* p = my_alloc(32, GFP_KERNEL);
      kfree(p);
      spin_unlock(&lk);
    }
  )";
  BlockStopReport r = Analyze(src);
  ASSERT_EQ(r.violations.size(), 1u);
  EXPECT_EQ(r.violations[0].caller, "bad");
}

TEST(BlockStop, InterruptHandlerContextIsAtomic) {
  const char* src = R"(
    void handler(int x) interrupt_handler {
      might_sleep();
    }
  )";
  BlockStopReport r = Analyze(src);
  ASSERT_EQ(r.violations.size(), 1u);
  EXPECT_EQ(r.violations[0].caller, "handler");
}

TEST(BlockStop, AtomicContextPropagatesToCallees) {
  const char* src = R"(
    void helper(void) { might_sleep(); }
    void handler(int x) interrupt_handler { helper(); }
  )";
  BlockStopReport r = Analyze(src);
  // Two findings rolled up: handler calls may-block helper; helper itself
  // blocks in an atomic-entered context.
  ASSERT_GE(r.violations.size(), 1u);
  bool found = false;
  for (const BlockingViolation& v : r.violations) {
    if (v.caller == "handler" && v.callee == "helper") {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(BlockStop, NoblockRuntimeCheckSilencesIndirectFp) {
  const char* src = R"(
    typedef int op_fn(int x);
    struct ops { op_fn* opt sleeper; op_fn* opt fast; };
    struct ops table;
    int lk;
    int sleepy(int x) noblock { assert_nonatomic(); msleep(x); return 0; }
    int quick(int x) { return x; }
    void init(void) { table.sleeper = sleepy; table.fast = quick; }
    void atomic_dispatch(int x) {
      spin_lock(&lk);
      op_fn* opt f = table.fast;   // insensitive ptsto also sees `sleepy`
      if (f) { f(x); }
      spin_unlock(&lk);
    }
  )";
  BlockStopReport insens = Analyze(src, /*field_sensitive=*/false);
  EXPECT_TRUE(insens.violations.empty());
  ASSERT_EQ(insens.silenced.size(), 1u);
  EXPECT_EQ(insens.silenced[0].callee, "sleepy");
  EXPECT_EQ(insens.runtime_checks, 1);

  BlockStopReport sens = Analyze(src, /*field_sensitive=*/true);
  EXPECT_TRUE(sens.violations.empty());
  EXPECT_TRUE(sens.silenced.empty()) << "field sensitivity removes the FP entirely";
}

TEST(BlockStop, SpinLockIrqsaveRestoresEntryState) {
  const char* src = R"(
    int lk;
    void fine(void) {
      int flags = spin_lock_irqsave(&lk);
      spin_unlock_irqrestore(&lk, flags);
      msleep(1);
    }
  )";
  EXPECT_TRUE(Analyze(src).violations.empty());
}

TEST(BlockStop, BranchJoinIsConservative) {
  const char* src = R"(
    int lk;
    void maybe_atomic(int c) {
      if (c) {
        spin_lock(&lk);
      }
      schedule();   // atomic on one path: must be reported
      if (c) {
        spin_unlock(&lk);
      }
    }
  )";
  BlockStopReport r = Analyze(src);
  EXPECT_EQ(r.violations.size(), 1u);
}

TEST(BlockStop, DynamicBackstopTrapsAtRuntime) {
  // The hybrid story: the same bug, executed, hits the VM's might_sleep trap.
  const char* src = R"(
    int lk;
    int main(void) {
      spin_lock(&lk);
      msleep(1);
      spin_unlock(&lk);
      return 0;
    }
  )";
  auto comp = CompileOne(src, ToolConfig{});
  ASSERT_TRUE(comp->ok);
  auto vm = MakeVm(*comp);
  VmResult r = vm->Call("main");
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.trap, TrapKind::kMightSleepAtomic);
}

TEST(BlockStop, AssertNonatomicPanicsWhenAssertionWrong) {
  const char* src = R"(
    int lk;
    int checked(void) noblock { assert_nonatomic(); return 0; }
    int main(void) {
      local_irq_disable();
      int r = checked();   // the run-time check the paper inserted fires
      local_irq_enable();
      return r;
    }
  )";
  auto comp = CompileOne(src, ToolConfig{});
  ASSERT_TRUE(comp->ok);
  auto vm = MakeVm(*comp);
  VmResult r = vm->Call("main");
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.trap, TrapKind::kPanic);
}

}  // namespace
}  // namespace ivy
