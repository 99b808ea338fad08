// Per-layer attribution for the traced run. Everything here observes the
// library from outside: spans are recorded in the benchmark's own files
// around public calls, and the in-library instruments that already exist
// (the ivytrace registry, the pass and link-round spans, annod's kStats) are
// read back after the fact.
#ifndef IVYBENCH_LAYERS_H_
#define IVYBENCH_LAYERS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.h"
#include "src/driver/compiler.h"

namespace ivybench {

// Starts a traced window: drops earlier spans, zeroes the registry, turns
// tracing on. Call only while no library thread is emitting spans.
void BeginTraced();
// Turns tracing off; recorded spans and metrics stay readable.
void EndTraced();

// Total duration of the spans recorded since BeginTraced, by span name.
struct SpanTotals {
  std::map<std::string, double> ms;
  double Ms(const std::string& name) const;
};
SpanTotals CollectSpans();

// Registry reads: a histogram's sum in milliseconds (histograms named *_us
// record microseconds), its sample count, and a counter's value.
double HistSumMs(const std::string& name);
uint64_t HistCount(const std::string& name);
uint64_t CounterValue(const std::string& name);

// Writes every recorded span (Chrome trace_event JSON) through TraceSink.
void WriteChromeTrace(const std::string& path);

// One cold replay of a set of programs through the frontend classes and
// the analysis context, each stage timed on its own (and spanned as
// mc.lex / mc.parse / mc.sema / ir.lower / analysis.pointsto /
// analysis.callgraph). Times and counts are totals over the programs.
struct FrontendReplay {
  double lex_ms = 0;
  double parse_ms = 0;
  double sema_ms = 0;
  double lower_ms = 0;
  double pointsto_ms = 0;
  double callgraph_ms = 0;
  int64_t tokens = 0;
  int64_t instrs = 0;
  int64_t propagations = 0;
  bool ok = true;
  std::string error;
};
// Each program is compiled with the prelude first, as Pipeline::Compile
// does; `deputy` selects Deputy check emission in lowering.
FrontendReplay ReplayFrontend(const std::vector<std::vector<ivy::SourceFile>>& programs,
                              bool deputy);

// Publishes the replay's mc.*, ir.* and analysis.{pointsto,callgraph}_ms
// metrics: one cold pass over the workload's programs.
void SetFrontendMetrics(const FrontendReplay& r, Report* report);

// What one traced window of link work reads back from the library's own
// instruments: the session.link_round spans and histogram, the frontend
// histograms recorded inside Pipeline::Compile and fingerprinting, the
// pass.* spans, the per-analysis solve counters and the work-queue counters.
struct LinkLayers {
  double link_round_ms = 0;
  double rounds = 0;
  double analyses = 0;
  double parse_ms = 0;  // frontend.parse_us: lexing + parsing
  double sema_ms = 0;
  double fingerprint_ms = 0;
  double blockstop_ms = 0;
  double stackcheck_ms = 0;
  double errcheck_ms = 0;
  double locksafe_ms = 0;
  double steals = 0;
  double idle_waits = 0;
};
LinkLayers ReadLinkLayers();
LinkLayers MedianLinkLayers(const std::vector<LinkLayers>& v);

// Publishes the session.*, pass, fingerprint and work-queue metrics of a
// link window and returns its coverage: the share of link-round wall time
// the layer numbers account for. Lowering, points-to and call-graph time
// have no in-library instrument, so they are estimated from `replay` as one
// cold pass per module analysis (`modules` programs in the replay). What
// is left over is session.link_unattributed_ms — reported as measured, even
// when negative (module analyses run up to nproc at a time, so busy time
// can exceed wall time).
double SetLinkMetrics(const LinkLayers& link, const FrontendReplay& replay, int modules,
                      double useful_modules, Report* report);

}  // namespace ivybench

#endif  // IVYBENCH_LAYERS_H_
