// ivytrace (src/support/trace.h): the observability layer's own contracts.
//
//   1. Concurrent span emission is safe (this file runs under TSan in CI)
//      and loses nothing below the ring capacity.
//   2. Per-thread rings are bounded: past kRingCapacity the oldest spans are
//      overwritten, never reallocated, and the newest survive.
//   3. The Chrome trace_event export is real JSON — names with quotes,
//      backslashes, and control bytes round-trip through Json::Parse.
//   4. Histogram percentiles match a sorted-vector reference evaluated at
//      the same rank, and never under-report (bucket upper bounds).
//   5. The determinism contract: tracing + metrics on vs off yields
//      byte-identical findings and summaries for a linked session run and
//      for an in-process AnnodServer epoch.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "src/server/epoch.h"
#include "src/server/server.h"
#include "src/support/json.h"
#include "src/support/trace.h"
#include "src/tool/session.h"
#include "tools/synth_common.h"

namespace ivy {
namespace {

// Every test leaves tracing off and the rings/metrics empty for the next.
struct TraceGuard {
  ~TraceGuard() {
    trace::SetEnabled(false);
    trace::ResetForTest();
  }
};

size_t CountEvents(const Json& root, const std::string& name) {
  const Json* events = root.Find("traceEvents");
  if (events == nullptr) {
    return 0;
  }
  size_t n = 0;
  for (const Json& ev : events->array()) {
    const Json* ev_name = ev.Find("name");
    if (ev_name != nullptr && ev_name->AsString() == name) {
      ++n;
    }
  }
  return n;
}

TEST(TraceSpan, DisabledSpansRecordNothing) {
  TraceGuard guard;
  trace::ResetForTest();
  ASSERT_FALSE(trace::Enabled());
  {
    TRACE_SPAN("t.off", {"k", int64_t{1}});
  }
  EXPECT_EQ(CountEvents(trace::TraceSink::ToJson(), "t.off"), 0u);
}

TEST(TraceSpan, ConcurrentEmissionIsCompleteUnderCapacity) {
  TraceGuard guard;
  trace::ResetForTest();
  trace::SetEnabled(true);

  constexpr int kThreads = 8;
  constexpr int kSpansEach = 200;  // well under the 4096-event ring
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kSpansEach; ++i) {
        TRACE_SPAN("t.concurrent", {"i", static_cast<int64_t>(i)});
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }

  Json root = trace::TraceSink::ToJson();
  EXPECT_EQ(CountEvents(root, "t.concurrent"),
            static_cast<size_t>(kThreads) * kSpansEach);

  // Events within one tid must be start-ordered (the export sorts globally;
  // a steady clock makes per-thread order a real invariant).
  const Json* events = root.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  double last_ts = -1.0;
  for (const Json& ev : events->array()) {
    double ts = ev.Find("ts")->AsDouble();
    EXPECT_GE(ts, last_ts);
    last_ts = ts;
  }
}

TEST(TraceSpan, RingWrapsKeepingNewestSpans) {
  TraceGuard guard;
  trace::ResetForTest();
  trace::SetEnabled(true);

  constexpr int kEmit = 5000;  // past the 4096 ring capacity
  for (int i = 0; i < kEmit; ++i) {
    trace::Span span("t.wrap." + std::to_string(i));
  }

  Json root = trace::TraceSink::ToJson();
  // The oldest overflowed out; the newest survived.
  EXPECT_EQ(CountEvents(root, "t.wrap.0"), 0u);
  EXPECT_EQ(CountEvents(root, "t.wrap." + std::to_string(kEmit - 1)), 1u);

  size_t wrap_events = 0;
  for (const Json& ev : root.Find("traceEvents")->array()) {
    const std::string& name = ev.Find("name")->AsString();
    if (name.rfind("t.wrap.", 0) == 0) {
      ++wrap_events;
    }
  }
  EXPECT_EQ(wrap_events, 4096u);  // exactly the ring capacity, no growth
}

TEST(TraceSpan, ExportEscapesHostileNamesAndParsesBack) {
  TraceGuard guard;
  trace::ResetForTest();
  trace::SetEnabled(true);

  const std::string hostile = "q\"b\\s\n\tx";
  {
    trace::Span span(hostile);
  }
  {
    trace::Span span("t.args", {"edge", INT64_MIN}, {"zero", int64_t{0}});
  }

  std::string text = trace::TraceSink::ToJson().Dump(-1);
  std::string err;
  Json parsed = Json::Parse(text, &err);
  ASSERT_TRUE(err.empty()) << err;

  EXPECT_EQ(CountEvents(parsed, hostile), 1u);
  // Args survive with full int64 range.
  bool found_args = false;
  for (const Json& ev : parsed.Find("traceEvents")->array()) {
    if (ev.Find("name")->AsString() == "t.args") {
      const Json* args = ev.Find("args");
      ASSERT_NE(args, nullptr);
      EXPECT_EQ(args->Find("edge")->AsInt(), INT64_MIN);
      EXPECT_EQ(args->Find("zero")->AsInt(), 0);
      found_args = true;
    }
  }
  EXPECT_TRUE(found_args);
}

TEST(TraceSpan, LongNamesTruncateAtCapacity) {
  TraceGuard guard;
  trace::ResetForTest();
  trace::SetEnabled(true);

  const std::string longname(200, 'n');
  {
    trace::Span span(longname);
  }
  EXPECT_EQ(CountEvents(trace::TraceSink::ToJson(),
                        longname.substr(0, trace::Event::kNameCap)),
            1u);
}

// ---------------------------------------------------------------------------
// Histogram percentiles vs a sorted-vector reference
// ---------------------------------------------------------------------------

// What Percentile(p) must return, computed from the raw samples: find the
// rank-th smallest sample (same rank rule as the implementation documents),
// then report its bucket's upper bound.
uint64_t ReferencePercentile(std::vector<uint64_t> samples, double p) {
  std::sort(samples.begin(), samples.end());
  uint64_t n = samples.size();
  uint64_t rank = static_cast<uint64_t>(p / 100.0 * static_cast<double>(n));
  if (rank < 1) {
    rank = 1;
  }
  if (rank > n) {
    rank = n;
  }
  uint64_t sample = samples[rank - 1];
  return trace::Histogram::BucketUpperBound(trace::Histogram::BucketIndex(sample));
}

TEST(TraceHistogram, PercentilesMatchSortedReference) {
  // Deterministic LCG spread over several octaves plus the exact range.
  std::vector<uint64_t> samples;
  uint64_t x = 88172645463325252ull;
  for (int i = 0; i < 10000; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    samples.push_back((x >> 33) % 1000000);  // 0 .. 1e6: exact + log buckets
  }

  trace::Histogram h;
  uint64_t sum = 0;
  for (uint64_t s : samples) {
    h.Record(s);
    sum += s;
  }
  EXPECT_EQ(h.Count(), samples.size());
  EXPECT_EQ(h.Sum(), sum);

  for (double p : {0.0, 1.0, 25.0, 50.0, 75.0, 95.0, 99.0, 99.9, 100.0}) {
    EXPECT_EQ(h.Percentile(p), ReferencePercentile(samples, p)) << "p=" << p;
  }

  // Pessimism: the reported percentile never under-reports the true sample
  // at that rank (bucket upper bounds), and log-bucket error stays < 25%.
  std::vector<uint64_t> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  for (double p : {50.0, 95.0, 99.0}) {
    uint64_t rank = static_cast<uint64_t>(p / 100.0 * sorted.size());
    uint64_t truth = sorted[rank - 1];
    uint64_t reported = h.Percentile(p);
    EXPECT_GE(reported, truth);
    EXPECT_LE(reported, truth + truth / 4 + 1);
  }
}

TEST(TraceHistogram, ExactBucketsBelowSixteen) {
  trace::Histogram h;
  for (uint64_t v = 0; v < 16; ++v) {
    h.Record(v);
  }
  // With one sample per value 0..15, every percentile is exact.
  EXPECT_EQ(h.Percentile(100), 15u);
  EXPECT_EQ(h.Percentile(50), 7u);
  for (uint64_t v = 0; v < 16; ++v) {
    EXPECT_EQ(trace::Histogram::BucketUpperBound(trace::Histogram::BucketIndex(v)), v);
  }
}

TEST(TraceHistogram, BucketBoundsAreConsistent) {
  // Every value maps to a bucket whose upper bound is >= the value and
  // whose index is monotone in the value.
  int last_idx = -1;
  for (uint64_t v : {0ull, 1ull, 15ull, 16ull, 17ull, 31ull, 32ull, 100ull,
                     1000ull, 65535ull, 65536ull, 1ull << 40, ~0ull >> 1}) {
    int idx = trace::Histogram::BucketIndex(v);
    EXPECT_GE(idx, last_idx);
    EXPECT_GE(trace::Histogram::BucketUpperBound(idx), v);
    last_idx = idx;
  }
}

TEST(TraceMetrics, RegistryRendersDeterministically) {
  TraceGuard guard;
  trace::ResetForTest();
  trace::GetCounter("ztest.count")->Add(3);
  trace::GetGauge("ztest.gauge")->RecordMax(7);
  trace::GetGauge("ztest.gauge")->RecordMax(5);  // max keeps 7
  trace::GetHistogram("ztest.hist_us")->Record(100);

  std::string rendered = trace::RenderMetrics();
  EXPECT_NE(rendered.find("ztest.count 3\n"), std::string::npos) << rendered;
  EXPECT_NE(rendered.find("ztest.gauge 7\n"), std::string::npos) << rendered;
  EXPECT_NE(rendered.find("ztest.hist_us count=1"), std::string::npos) << rendered;
  // Same registry, same bytes.
  EXPECT_EQ(rendered, trace::RenderMetrics());
}

// ---------------------------------------------------------------------------
// The determinism contract: tracing observes, never decides
// ---------------------------------------------------------------------------

LinkedCorpusOptions PropertyCorpus(uint64_t seed) {
  LinkedCorpusOptions opt;
  opt.modules = 3;
  opt.functions = 16;
  opt.seed = seed;
  return opt;
}

// Canonical byte form of a converged run: every summary row, then every
// finding, exactly the bytes the link fixpoint itself diffs.
std::string CanonicalRun(const LinkedCorpusOptions& opt) {
  AnalysisSession session =
      SynthServePipeline().ForEachModule(GenerateLinkedCorpus(opt)).BuildSession();
  SessionResult result = session.RunLinked();
  EXPECT_EQ(result.compile_failures, 0);
  EXPECT_TRUE(session.link_stats().converged);
  auto snap = BuildEpochSnapshot(1, result, session.link_table());
  std::string out;
  for (const std::string& row : snap->summaries_canon) {
    out += row;
    out += '\n';
  }
  for (const std::string& row : snap->findings_canon) {
    out += row;
    out += '\n';
  }
  return out;
}

TEST(TraceDeterminism, SessionRunIsByteIdenticalTracedVsUntraced) {
  TraceGuard guard;
  for (uint64_t seed : {1ull, 7ull, 42ull}) {
    trace::SetEnabled(false);
    std::string untraced = CanonicalRun(PropertyCorpus(seed));

    trace::ResetForTest();
    trace::SetEnabled(true);
    std::string traced = CanonicalRun(PropertyCorpus(seed));
    trace::SetEnabled(false);

    ASSERT_FALSE(untraced.empty());
    EXPECT_EQ(untraced, traced) << "seed " << seed;
  }
}

std::string ServerEpochBytes(bool traced, const LinkedCorpusOptions& opt) {
  trace::SetEnabled(traced);
  AnnodServer::Options sopts;
  sopts.pipeline = SynthServePipeline().Build();
  AnnodServer server(std::move(sopts));
  EXPECT_TRUE(server.OpenCorpus("synth"));
  for (ModuleSources& mod : GenerateLinkedCorpus(opt)) {
    EXPECT_TRUE(server.EnqueueUpsert("synth", std::move(mod)));
  }
  EXPECT_GT(server.SyncEpoch("synth"), 0u);
  auto snap = server.Snapshot("synth");
  EXPECT_NE(snap, nullptr);
  trace::SetEnabled(false);
  if (snap == nullptr) {
    return std::string();
  }
  std::string out;
  for (const std::string& row : snap->summaries_canon) {
    out += row;
    out += '\n';
  }
  for (const std::string& row : snap->findings_canon) {
    out += row;
    out += '\n';
  }
  return out;
}

TEST(TraceDeterminism, ServerEpochIsByteIdenticalTracedVsUntraced) {
  TraceGuard guard;
  LinkedCorpusOptions opt = PropertyCorpus(11);
  std::string untraced = ServerEpochBytes(false, opt);
  trace::ResetForTest();
  std::string traced = ServerEpochBytes(true, opt);
  ASSERT_FALSE(untraced.empty());
  EXPECT_EQ(untraced, traced);
}

TEST(TraceDeterminism, TracedRunActuallyRecordsSessionSpans) {
  // Guard against the instrumentation silently rotting: a traced linked run
  // must leave link-round spans and solve counters behind.
  TraceGuard guard;
  trace::ResetForTest();
  trace::SetEnabled(true);
  CanonicalRun(PropertyCorpus(3));
  trace::SetEnabled(false);

  EXPECT_GE(CountEvents(trace::TraceSink::ToJson(), "session.link_round"), 1u);
  EXPECT_GT(trace::GetCounter("session.solve_cold")->Value(), 0u);
}

}  // namespace
}  // namespace ivy
