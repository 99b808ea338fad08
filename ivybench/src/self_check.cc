// The gate self-check: every correctness gate must accept the right
// reference and trip on a deliberately wrong one, on inputs small enough to
// run in seconds. A gate that cannot fail proves nothing.
#include <cstdio>
#include <string>
#include <vector>

#include "common.h"
#include "src/kernel/corpus.h"
#include "src/server/client.h"
#include "src/server/server.h"
#include "src/tool/session.h"
#include "tests/synth_corpus.h"
#include "workloads.h"

namespace ivybench {

namespace {

std::vector<ivy::ModuleSources> SmallCorpus(uint64_t seed) {
  ivy::LinkedCorpusOptions opt;
  opt.modules = 3;
  opt.functions = 24;
  opt.seed = seed;
  return ivy::GenerateLinkedCorpus(opt);
}

// One gate probe: `run` fills a fresh report; the probe passes when the
// report's verdict matches `want_pass`.
template <typename F>
bool Expect(const char* name, bool want_pass, F run) {
  Report rep;
  run(&rep);
  const bool passed = rep.correct && rep.failed == 0;
  const bool good = passed == want_pass;
  std::printf("self-check %-44s %s (%s)\n", name, good ? "ok" : "FAILED",
              passed ? "gate passed" : "gate tripped");
  return good;
}

bool CheckColdLinkGate() {
  std::vector<ivy::ModuleSources> corpus = SmallCorpus(7);
  ivy::PipelineBuilder b = ivy::SynthServePipeline();
  b.ForEachModule(corpus);
  ivy::AnalysisSession session = b.BuildSession();
  ivy::SessionResult result = session.RunLinked();
  std::vector<std::string> linked = LinkedFindings(session, result);
  std::vector<std::string> right;
  std::vector<std::string> wrong;
  std::string err;
  if (!MergedFindings(corpus, &right, &err) || !MergedFindings(SmallCorpus(8), &wrong, &err)) {
    std::printf("self-check cold_link: %s\n", err.c_str());
    return false;
  }
  bool ok = Expect("cold_link vs merged source (right)", true, [&](Report* r) {
    GateEqual("linked vs merged", linked, right, r);
  });
  ok &= Expect("cold_link vs merged source (other seed)", false, [&](Report* r) {
    GateEqual("linked vs merged", linked, wrong, r);
  });
  return ok;
}

bool CheckEditServeGate() {
  std::vector<ivy::ModuleSources> corpus = SmallCorpus(11);
  ivy::AnnodServer::Options o;
  o.pipeline = ivy::SynthServePipeline().Build();
  ivy::AnnodServer server(std::move(o));
  server.OpenCorpus("check");
  for (const ivy::ModuleSources& m : corpus) server.EnqueueUpsert("check", m);
  std::string err;
  if (!server.Start("127.0.0.1:0", &err) || server.SyncEpoch("check") == 0) {
    std::printf("self-check edit_serve: server did not start: %s\n", err.c_str());
    return false;
  }
  Edit edit;
  edit.module = ivy::LinkedModuleName(1);
  edit.function = ivy::SynthFuncName(ivy::LinkedModulePrefix(1), 3);
  edit.definition =
      "void " + edit.function + "(int n) {\n  int pad[8]; pad[0] = n;\n  msleep(n);\n}\n";
  ivy::AnnodClient client;
  uint64_t epoch = 0;
  bool sent = client.Connect(server.bound_address(), &err) &&
              client.ReplaceFunction("check", edit.module, edit.function, edit.definition,
                                     nullptr, &err) &&
              client.Sync("check", &epoch, &err);
  std::shared_ptr<const ivy::EpochSnapshot> served = server.Snapshot("check");
  client.Disconnect();
  server.RequestShutdown();
  server.Wait();
  if (!sent || served == nullptr) {
    std::printf("self-check edit_serve: edit failed: %s\n", err.c_str());
    return false;
  }
  auto gate = [&](const std::vector<Edit>& edits, Report* r) {
    ivy::PipelineBuilder b = ivy::SynthServePipeline();
    b.ForEachModule(corpus);
    ivy::AnalysisSession cold = b.BuildSession();
    EpochMatchesCold(*served, &cold, edits, r);
  };
  bool ok = Expect("edit_serve epoch vs cold batch (right)", true,
                   [&](Report* r) { gate({edit}, r); });
  ok &= Expect("edit_serve epoch vs cold batch (edit dropped)", false,
               [&](Report* r) { gate({}, r); });
  return ok;
}

bool CheckKernelVmGate() {
  auto comp = ivy::CompileKernel(KernelConfig());
  if (!comp->ok) {
    std::printf("self-check kernel_vm: kernel did not compile\n");
    return false;
  }
  std::vector<Call> calls = KernelCallPlan(1);
  calls.resize(3);
  std::vector<Call> off = calls;
  off[0].args[0] += 1;
  auto signature_bc = [&]() {
    auto vm = ivy::MakeBcVm(*comp);
    return VmSignature(*vm, calls);
  };
  std::vector<std::string> bc = signature_bc();
  auto tree = [&](const std::vector<Call>& c) {
    auto vm = ivy::MakeVm(*comp);
    return VmSignature(*vm, c);
  };
  bool ok = Expect("kernel_vm bytecode vs tree VM (right)", true, [&](Report* r) {
    GateEqual("bytecode vs tree", bc, tree(calls), r);
  });
  ok &= Expect("kernel_vm bytecode vs tree VM (other args)", false, [&](Report* r) {
    GateEqual("bytecode vs tree", bc, tree(off), r);
  });
  return ok;
}

}  // namespace

bool RunSelfCheck() {
  bool ok = CheckColdLinkGate();
  ok &= CheckEditServeGate();
  ok &= CheckKernelVmGate();
  std::printf("self-check %s\n", ok ? "passed: every gate accepts the right reference and "
                                      "trips on a wrong one"
                                    : "FAILED");
  return ok;
}

}  // namespace ivybench
