// Shared plumbing of the Ivy benchmark: command-line options, timing and
// order statistics, the seeded input digest, the correctness gate, and the
// report every workload fills in and prints.
#ifndef IVYBENCH_COMMON_H_
#define IVYBENCH_COMMON_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/tool/pipeline.h"
#include "tools/synth_common.h"

namespace ivybench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Scratch directory for store files and the Chrome trace; run.py passes
  // one inside the checkout's build directory.
  std::string workdir = ".";
};

// Wall clock in seconds / milliseconds on the library's steady clock.
double NowS();
inline double MsSince(double t0_s) { return (NowS() - t0_s) * 1000.0; }

// Peak resident set of this process, in MiB (ru_maxrss).
double PeakRssMb();

// The median of unsorted samples (copied, not modified); 0 when empty.
double Median(std::vector<double> v);

// The highest percentile of a fixed ladder (50 .. 99.9) that still has at
// least ten samples beyond it; `pct` is 0 when there are too few samples
// for even the median to qualify.
struct Tail {
  double value = 0;
  double pct = 0;
  size_t samples = 0;
  size_t beyond = 0;
};
Tail TailOf(std::vector<double> v);

// The host-speed reference. The benchmark shares a few cores of a host whose
// speed drifts by itself: the same single-threaded work runs up to 1.7x
// slower for seconds to minutes at a time, so a run's median timing measures
// the neighbours as much as the program. A Yardstick runs a fixed piece of
// the benchmark's own work between the workload's iterations, about a tenth
// of the run, and rescales each iteration's time by how slowly the slices
// right after it ran (the host's speed holds for seconds at a time). The
// reference is node-based std::map inserts plus a dependent-load chase over
// 256 KiB: of six kernels timed alongside the workloads over seven runs of
// each (a 16 MiB chase, hash-table lookups, a switch-dispatch loop, std::map
// churn, the 256 KiB chase, string hashing), that pair's time followed the
// workloads' run-to-run drift most closely, and it is small enough that the
// program's own memory use does not change how fast it runs (the 16 MiB
// chase ran 2x slower beside kernel_vm than beside cold_link). A change to
// the program moves only the workload's time, never the reference's.
class Yardstick {
 public:
  // Fills the chase table and runs one unrecorded slice (outside any timing).
  Yardstick();
  // Runs one slice per ~100 ms of `workload_ms` (at least one), right after
  // the work it measured, and returns the factor that brings that work to
  // reference speed: kNominalSliceMs / the median of those slices, widened
  // to the last kMinWindow slices when there are fewer (one slice is too
  // noisy a reading of a pass of about 100 ms).
  double Follow(double workload_ms);
  // The median of every slice so far, in ms.
  double SliceMs() const;
  size_t slices() const { return slice_ms_.size(); }
  // About the median slice time in the quietest runs on the 4-vCPU Xeon VM
  // the benchmark was written on (7.8-8.2 ms), so scaled times read close
  // to what that machine gives when nothing else is running.
  static constexpr double kNominalSliceMs = 8.0;

 private:
  static constexpr uint32_t kChaseSlots = 1u << 16;
  static constexpr size_t kMinWindow = 9;
  double Slice();
  std::vector<uint32_t> chase_;
  std::vector<double> slice_ms_;
  uint64_t sink_ = 0;
};

// "%.4f <unit>" for notes.
std::string Fmt(double v, const char* unit);

// 64-bit FNV-1a, chained: the digest of every generated input, so two runs
// can be confirmed to have measured the same inputs.
class Digest {
 public:
  void Add(const std::string& s);
  void Add(uint64_t v);
  std::string Hex() const;

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

// xorshift64* stream for the benchmark's own choices (edit targets, call
// order). Independent of the library's generator so the program under test
// never shares state with the load it is given.
class Rand {
 public:
  explicit Rand(uint64_t seed) : s_(seed * 0x9e3779b97f4a7c15ULL + 0x2545f4914f6cdd1dULL) {
    if (s_ == 0) s_ = 1;
  }
  uint64_t Next();
  uint64_t Below(uint64_t n) { return n == 0 ? 0 : Next() % n; }

 private:
  uint64_t s_;
};

// A workload's outcome. Metrics keep insertion order; `failed` counts
// failed or refused operations and correctness mismatches.
struct Report {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::string digest;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::vector<std::string> notes;  // printed before the result line

  void Set(const std::string& name, double value, const std::string& unit);
  void Note(const std::string& line) { notes.push_back(line); }
  // One of the end-to-end metrics named in the benchmark's documentation
  // (cold_s, edit_tail_ms, ...), printed as "= name value unit detail" for
  // run.py's table.
  void Named(const std::string& name, double value, const std::string& unit,
             const std::string& detail = std::string());
  // A failed gate or operation: counted, printed to stderr, never silent.
  void Fail(const std::string& why);
  // The notes, one "name value unit" line per metric and the failed share,
  // then the one-line JSON result (the last line of stdout). An incorrect run
  // posts no metrics.
  void Print(const Options& opt) const;
};

// Names a millisecond tail: "= <name> value ms (p95 of 500 samples, 25
// beyond)"; the value is nan when no percentile has ten samples beyond it.
void NameTail(const std::string& name, const Tail& t, Report* report);

// Notes the run's median yardstick slice and what the *_ref_ms metrics are.
void NoteHostSpeed(const Yardstick& yard, Report* report);

// The gate behind every correctness check: equal -> true; otherwise the
// first differing line is reported through `report` and false returned.
bool GateEqual(const std::string& what, const std::vector<std::string>& got,
               const std::vector<std::string>& want, Report* report);

// The pipeline of every timed session and of the server: the linked-corpus
// recipe of tools/synth_common.h with modules analysed one at a time.
// Findings and summaries are byte-identical at any concurrency; one analysis
// thread keeps the timings from measuring how the shared host schedules four
// threads, and lets the single-threaded Yardstick track the host's speed.
inline ivy::PipelineBuilder TimedPipeline() {
  ivy::PipelineBuilder b = ivy::SynthServePipeline();
  b.Parallel(false);
  return b;
}

// The 8-module x 400-function linked corpus for `seed` (ROADMAP baseline
// shape) and its digest.
std::vector<ivy::ModuleSources> LinkedCorpus(uint64_t seed);
void AddCorpusDigest(const std::vector<ivy::ModuleSources>& corpus, Digest* d);
inline constexpr int kCorpusModules = 8;
inline constexpr int kCorpusFunctions = 400;

}  // namespace ivybench

#endif  // IVYBENCH_COMMON_H_
