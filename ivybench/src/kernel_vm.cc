// kernel_vm: the run-time half. The real kernel corpus compiled with Deputy
// and CCount checks, compiled to ivybc, verified and booted; then a seeded
// sequence of hbench shapes and CCount's refcount-heavy calls on the
// bytecode VM. The tree VM runs the same calls outside the timed region as
// the correctness oracle.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "layers.h"
#include "src/bc/bytecode.h"
#include "src/bc/compile.h"
#include "src/bc/verify.h"
#include "src/hbench/hbench.h"
#include "src/kernel/corpus.h"
#include "src/support/trace.h"
#include "workloads.h"

namespace ivybench {
namespace {

// bench_ccount_overhead's rows: the refcount-heavy calls CCount's overhead
// table is measured on (fork and module loading), with its arguments.
struct CcountRow {
  const char* fn;
  int64_t arg;
};
const CcountRow kCcountRows[] = {{"hb_lat_proc", 160}, {"hb_mod_load", 80}};

std::string RenderVmResult(const std::string& fn, const ivy::VmResult& r) {
  return fn + " ok=" + std::to_string(r.ok ? 1 : 0) + " value=" + std::to_string(r.value) +
         " trap=" + ivy::TrapKindName(r.trap) + " msg=" + r.trap_msg +
         " cycles=" + std::to_string(r.cycles) + " steps=" + std::to_string(r.steps);
}

}  // namespace

// One pass: every bench_ccount_overhead row, then every benchmark of
// ivy::HbenchSuite() (Table 1's shapes, with its arguments) in a seeded
// order, once each. The CCount rows come first and in a fixed order because
// a call's work depends on what ran before it on the same machine:
// hb_lat_proc took 1.49M to 2.22M steps depending on its position, so a
// seeded position would make the secondary metric measure the seed.
std::vector<Call> KernelCallPlan(uint64_t seed) {
  Rand rng(seed ^ 0x5eedca11ULL);
  std::vector<Call> calls;
  for (const CcountRow& r : kCcountRows) {
    calls.push_back({r.fn, {r.arg}, true});
  }
  const size_t first_hbench = calls.size();
  for (const ivy::HbenchSpec& s : ivy::HbenchSuite()) {
    calls.push_back({s.func, s.args, false});
  }
  for (size_t i = calls.size() - first_hbench; i > 1; --i) {
    std::swap(calls[first_hbench + i - 1], calls[first_hbench + rng.Below(i)]);
  }
  return calls;
}

std::string KernelVmDigest(uint64_t seed) {
  Digest d;
  for (const ivy::SourceFile& f : ivy::KernelSources()) {
    d.Add(f.name);
    d.Add(f.text);
  }
  for (const Call& c : KernelCallPlan(seed)) {
    d.Add(c.fn);
    for (int64_t a : c.args) d.Add(static_cast<uint64_t>(a));
  }
  return d.Hex();
}

ivy::ToolConfig KernelConfig() {
  ivy::ToolConfig cfg;
  cfg.deputy = true;
  cfg.ccount = true;
  return cfg;
}

std::vector<std::string> VmSignature(ivy::Machine& vm, const std::vector<Call>& calls) {
  std::vector<std::string> lines;
  lines.push_back(RenderVmResult("boot_kernel", vm.Call("boot_kernel", {2})));
  lines.push_back(RenderVmResult("hb_setup", vm.Call("hb_setup")));
  for (const Call& c : calls) {
    lines.push_back(RenderVmResult(c.fn, vm.Call(c.fn, c.args)));
  }
  return lines;
}

void RunKernelVm(const Options& opt, Report* rep) {
  const std::vector<Call> calls = KernelCallPlan(opt.seed);
  rep->digest = KernelVmDigest(opt.seed);

  // Every pass sets up from scratch (compile with Deputy and CCount,
  // CompileToBc, verify, boot: the timed set-up) and then runs the calls on
  // that freshly booted machine, so kernel state never carries over: each
  // pass does identical work and must render identically, call for call.
  struct Pass {
    double setup_s = 0;
    double bc_ms = 0, verify_ms = 0, boot_ms = 0;
    double hbench_ms = 0;
    double ccount_ms = 0;
    int64_t steps = 0;
  };
  std::unique_ptr<ivy::Compilation> comp;
  std::shared_ptr<const ivy::BcModule> bc;
  std::vector<Pass> plain;
  std::vector<Pass> traced;
  std::vector<std::string> rendered;
  auto run_pass = [&]() -> Pass {
    Pass p;
    std::string err;
    const double t0 = NowS();
    comp = ivy::CompileKernel(KernelConfig());
    const double t1 = NowS();
    ++rep->attempted;
    if (!comp->ok) {
      rep->Fail("kernel compile: " + comp->Errors());
      return p;
    }
    bc = ivy::CompileToBc(comp->module, &err);
    const double t2 = NowS();
    if (bc == nullptr) {
      rep->Fail("CompileToBc: " + err);
      return p;
    }
    const bool verified = ivy::VerifyBcModule(*bc, &err);
    const double t3 = NowS();
    if (!verified) {
      rep->Fail("bytecode verification: " + err);
      return p;
    }
    auto vm = ivy::MakeBcVm(*comp, ivy::VmConfig{}, bc, &err);
    if (vm == nullptr) {
      rep->Fail("MakeBcVm: " + err);
      return p;
    }
    const ivy::VmResult boot = vm->Call("boot_kernel", {2});
    const ivy::VmResult setup = vm->Call("hb_setup");
    const double t4 = NowS();
    if (!boot.ok || !setup.ok) {
      rep->Fail("boot trapped: " + boot.trap_msg + setup.trap_msg);
      return p;
    }
    p.setup_s = t4 - t0;
    p.bc_ms = (t2 - t1) * 1000;
    p.verify_ms = (t3 - t2) * 1000;
    p.boot_ms = (t4 - t3) * 1000;

    std::vector<std::string> lines = {RenderVmResult("boot_kernel", boot),
                                      RenderVmResult("hb_setup", setup)};
    const int64_t steps0 = vm->steps();
    for (const Call& c : calls) {
      const double tc = NowS();
      ivy::VmResult r = vm->Call(c.fn, c.args);
      const double ms = MsSince(tc);
      (c.ccount ? p.ccount_ms : p.hbench_ms) += ms;
      ++rep->attempted;
      lines.push_back(RenderVmResult(c.fn, r));
      if (!r.ok) {
        rep->Fail(c.fn + " trapped: " + r.trap_msg);
        return p;
      }
    }
    p.steps = vm->steps() - steps0;  // VmResult::steps is the machine's running total
    if (rendered.empty()) {
      rendered = std::move(lines);
    } else {
      GateEqual("bytecode VM pass determinism", lines, rendered, rep);
    }
    return p;
  };

  Yardstick yard;
  std::vector<double> hbench_ref;
  std::vector<double> ccount_ref;
  const double start = NowS();
  while (plain.empty() || NowS() - start < opt.seconds) {
    plain.push_back(run_pass());
    if (!rep->correct) return;
    const double f = yard.Follow(plain.back().hbench_ms + plain.back().ccount_ms);
    hbench_ref.push_back(plain.back().hbench_ms * f);
    ccount_ref.push_back(plain.back().ccount_ms * f);
    if (opt.trace) {
      ivy::trace::SetEnabled(true);
      {
        TRACE_SPAN("vm.pass");
        traced.push_back(run_pass());
      }
      ivy::trace::SetEnabled(false);
      if (!rep->correct) return;
    }
  }

  // Gate: the tree VM, booted the same way, must agree on every call of a
  // pass (value, trap, cycles, steps).
  {
    auto tree = ivy::MakeVm(*comp);
    ++rep->attempted;
    if (!GateEqual("bytecode VM vs tree VM", rendered, VmSignature(*tree, calls), rep)) {
      return;
    }
  }

  std::vector<double> setup_s;
  std::vector<double> hb;
  std::vector<double> cc;
  std::vector<double> total;
  for (const Pass& p : plain) {
    setup_s.push_back(p.setup_s);
    hb.push_back(p.hbench_ms);
    cc.push_back(p.ccount_ms);
    total.push_back(p.hbench_ms + p.ccount_ms);
  }
  const int64_t image_bytes = static_cast<int64_t>(ivy::EncodeBcImage(*bc).size());
  rep->Named("setup_s", Median(setup_s), "s",
             "(median of " + std::to_string(setup_s.size()) +
                 " compiles + CompileToBc + verify + boot)");
  rep->Named("vm_run_s", Median(total) / 1000, "s",
             "(median of " + std::to_string(plain.size()) + " passes of " +
                 std::to_string(calls.size()) + " calls)");
  rep->Named("peak_rss_mb", PeakRssMb(), "MB");
  NoteHostSpeed(yard, rep);
  rep->Note("hbench shapes " + Fmt(Median(hb), "ms") + " + CCount refcount calls " +
            Fmt(Median(cc), "ms") + " per pass; " + std::to_string(plain.front().steps) +
            " steps per pass; image " + std::to_string(image_bytes) + " bytes");

  if (!opt.trace) {
    rep->Set("setup_s", Median(setup_s), "s");
    rep->Set("primary_p50_ref_ms", Median(hbench_ref), "ms");
    rep->Set("secondary_p50_ref_ms", Median(ccount_ref), "ms");
    rep->Set("peak_rss_mb", PeakRssMb(), "MB");
    rep->Set("artifact_bytes", static_cast<double>(image_bytes), "bytes");
    return;
  }

  FrontendReplay replay = ReplayFrontend({ivy::KernelSources()}, /*deputy=*/true);
  if (!replay.ok) {
    rep->Fail("frontend replay: " + replay.error);
    return;
  }
  SetFrontendMetrics(replay, rep);
  std::vector<double> traced_setup_s, bc_ms, verify_ms, boot_ms, traced_total, steps;
  for (const Pass& p : traced) {
    traced_setup_s.push_back(p.setup_s);
    bc_ms.push_back(p.bc_ms);
    verify_ms.push_back(p.verify_ms);
    boot_ms.push_back(p.boot_ms);
    traced_total.push_back(p.hbench_ms + p.ccount_ms);
    steps.push_back(static_cast<double>(p.steps));
  }
  rep->Set("bc.compile_ms", Median(bc_ms), "ms");
  rep->Set("bc.verify_ms", Median(verify_ms), "ms");
  rep->Set("bc.image_bytes", static_cast<double>(image_bytes), "bytes");
  rep->Set("vm.boot_ms", Median(boot_ms), "ms");
  const double pass_ms = Median(traced_total);
  rep->Set("vm.steps", Median(steps), "count");
  rep->Set("vm.ns_per_step", pass_ms * 1e6 / Median(steps), "ns");
  // Set-up coverage: the replayed frontend stages plus bytecode compile,
  // verify and boot, against the traced passes' median set-up time.
  const double covered = replay.lex_ms + replay.parse_ms + replay.sema_ms + replay.lower_ms +
                         Median(bc_ms) + Median(verify_ms) + Median(boot_ms);
  rep->Set("layers.coverage_frac", covered / (Median(traced_setup_s) * 1000), "frac");
  rep->Set("trace.overhead_frac", pass_ms / Median(total) - 1.0, "frac");
  WriteChromeTrace(opt.workdir + "/trace_kernel_vm.json");
}

}  // namespace ivybench
