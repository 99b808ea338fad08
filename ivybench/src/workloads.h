// The three workloads. Each fills `report` with the end-to-end metrics
// (trace off) or the per-layer metrics (trace on), counts every operation
// it attempts, and fails the report on any correctness mismatch.
#ifndef IVYBENCH_WORKLOADS_H_
#define IVYBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "src/driver/compiler.h"
#include "src/server/epoch.h"
#include "src/tool/session.h"

namespace ivybench {

void RunColdLink(const Options& opt, Report* report);
void RunEditServe(const Options& opt, Report* report);
void RunKernelVm(const Options& opt, Report* report);

// Digest of every input a workload generates for `seed`: the corpus plus
// the edit sequence, or the kernel sources plus the call sequence.
std::string EditServeDigest(uint64_t seed);
std::string KernelVmDigest(uint64_t seed);

// Feeds each workload's correctness gate a right and a deliberately wrong
// reference on small inputs; true when every gate passes the first and
// trips on the second.
bool RunSelfCheck();

// --- The gates, shared by the workloads and the self-check. ---

// cold_link: linked findings (rendered, module stamps dropped, sorted)
// must equal the merged-source single program's.
std::vector<std::string> LinkedFindings(const ivy::AnalysisSession& session,
                                        const ivy::SessionResult& result);
bool MergedFindings(const std::vector<ivy::ModuleSources>& corpus,
                    std::vector<std::string>* out, std::string* err);

// edit_serve: a served epoch must equal a cold batch RunLinked of `cold` (a
// fresh session over the original corpus) after `edits` are applied to it
// in order. The cold result is handed back when asked for.
struct Edit {
  std::string module;
  std::string function;
  std::string definition;
  bool fact_change = false;  // intended; the measured share is reported
};
bool EpochMatchesCold(const ivy::EpochSnapshot& served, ivy::AnalysisSession* cold,
                      const std::vector<Edit>& edits, Report* report,
                      ivy::SessionResult* cold_result = nullptr);

// kernel_vm: the seeded call pass, and the per-call rendering (boot, setup,
// then every call's value, trap, cycles and steps) both VMs must agree on.
struct Call {
  std::string fn;
  std::vector<int64_t> args;
  bool ccount = false;  // a bench_ccount_overhead row
};
std::vector<Call> KernelCallPlan(uint64_t seed);
ivy::ToolConfig KernelConfig();
std::vector<std::string> VmSignature(ivy::Machine& vm, const std::vector<Call>& calls);

}  // namespace ivybench

#endif  // IVYBENCH_WORKLOADS_H_
