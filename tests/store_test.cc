// The persistent analysis store (src/store/store.h) and the session
// plumbing over it (SaveStore/LoadStore, RunLinkedDistributed):
//
//   1. Format totality, wire_test-style: encode/decode round trips, every
//      strict prefix rejected, bad magic/version/flag bytes rejected, and
//      seeded random/mutated-byte fuzz that must never crash or over-read.
//   2. Warm start: a fresh session that LoadStores a converged run relinks
//      in one idle round with zero module analyses and byte-identical
//      findings; a warm session + edit equals a cold session + same edit.
//   3. Crash recovery: an unconverged store loads with every module dirty
//      and re-derives the identical fixpoint.
//   4. Distributed relink (in-process run_worker hook): byte-identical to
//      single-process RunLinked across worker counts, with the same link
//      stats through relinks after edits; a failed worker leaves the run
//      resumable.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "src/store/store.h"
#include "src/support/rng.h"
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

std::vector<ModuleSources> SmallCorpus() {
  LinkedCorpusOptions opt;
  opt.modules = 3;
  opt.functions = 16;
  opt.seed = 4;
  return GenerateLinkedCorpus(opt);
}

// A store path in the test temp dir, with its sidecar files scrubbed.
class StorePath {
 public:
  explicit StorePath(const std::string& name)
      : path_(::testing::TempDir() + "ivy_store_test_" + name + ".store") {
    Scrub();
  }
  ~StorePath() { Scrub(); }
  const std::string& get() const { return path_; }

 private:
  void Scrub() {
    std::remove(path_.c_str());
    std::remove((path_ + ".lock").c_str());
    std::remove((path_ + ".round").c_str());
  }
  std::string path_;
};

StoreFile SampleStore() {
  StoreFile sf;
  sf.corpus_digest = 0x0123456789abcdefull;
  sf.linked = true;
  sf.converged = true;

  StoreModule a;
  a.name = "alpha";
  a.files = {{"alpha.mc", "void a(void) {}\n"}, {"alpha2.mc", ""}};
  a.source_digest = SourcesDigest(a.files);
  a.analyzed = true;
  a.ok = true;
  a.import_sig = "sig-bytes\x01\x02";
  a.has_link_names = true;
  a.defined_names = {"a", "b"};
  a.extern_refs = {"c"};
  Finding f;
  f.tool = "blockstop";
  f.severity = FindingSeverity::kError;
  f.loc = SourceLoc{0, 3, 7};
  f.message = "m";
  f.witness = {"a", "calls b"};
  a.findings = {f, Finding{}};
  sf.modules["alpha"] = a;

  StoreModule d;  // dirty at save time: sources only
  d.name = "beta";
  d.files = {{"beta.mc", "void c(void) {}\n"}};
  d.source_digest = SourcesDigest(d.files);
  sf.modules["beta"] = d;

  FuncSummary row;
  row.module = "alpha";
  row.function = "a";
  row.defined = true;
  row.may_block = true;
  row.block_witness = "msleep";
  row.errcodes = {-5, -12};
  row.callees = {"b", "c"};
  row.stack_below = 96;
  sf.summaries[{"alpha", "a"}] = row;
  FuncSummary usage;
  usage.module = "beta";
  usage.function = "a";
  usage.entered_atomic = true;
  usage.param_points = {{0, {"a"}}, {2, {}}};
  sf.summaries[{"beta", "a"}] = usage;
  return sf;
}

// ---------------------------------------------------------------------------
// Format
// ---------------------------------------------------------------------------

TEST(StoreFormat, RoundTrip) {
  StoreFile sf = SampleStore();
  std::string bytes = EncodeStore(sf);
  StoreFile back;
  std::string err;
  ASSERT_TRUE(DecodeStore(bytes, &back, &err)) << err;
  EXPECT_EQ(back.corpus_digest, sf.corpus_digest);
  EXPECT_EQ(back.linked, sf.linked);
  EXPECT_EQ(back.converged, sf.converged);
  ASSERT_EQ(back.modules.size(), 2u);
  const StoreModule& a = back.modules.at("alpha");
  EXPECT_EQ(a.files, sf.modules.at("alpha").files);
  EXPECT_EQ(a.source_digest, sf.modules.at("alpha").source_digest);
  EXPECT_TRUE(a.analyzed);
  EXPECT_TRUE(a.ok);
  EXPECT_EQ(a.import_sig, sf.modules.at("alpha").import_sig);
  EXPECT_TRUE(a.has_link_names);
  EXPECT_EQ(a.defined_names, sf.modules.at("alpha").defined_names);
  EXPECT_EQ(a.extern_refs, sf.modules.at("alpha").extern_refs);
  ASSERT_EQ(a.findings.size(), 2u);
  for (size_t i = 0; i < a.findings.size(); ++i) {
    EXPECT_EQ(a.findings[i].ToJson().Dump(-1),
              sf.modules.at("alpha").findings[i].ToJson().Dump(-1));
  }
  EXPECT_FALSE(back.modules.at("beta").analyzed);
  ASSERT_EQ(back.summaries.size(), sf.summaries.size());
  for (const auto& [key, row] : sf.summaries) {
    ASSERT_EQ(back.summaries.count(key), 1u);
    EXPECT_EQ(back.summaries.at(key).Canonical(), row.Canonical());
  }
  // Deterministic bytes: re-encoding the decode is the identity.
  EXPECT_EQ(EncodeStore(back), bytes);
}

TEST(StoreFormat, EveryStrictPrefixRejected) {
  std::string bytes = EncodeStore(SampleStore());
  StoreFile out;
  for (size_t n = 0; n < bytes.size(); ++n) {
    std::string err;
    EXPECT_FALSE(DecodeStore(bytes.substr(0, n), &out, &err))
        << "prefix of " << n << " bytes accepted";
  }
}

TEST(StoreFormat, TrailingBytesRejected) {
  std::string bytes = EncodeStore(SampleStore()) + "x";
  StoreFile out;
  std::string err;
  EXPECT_FALSE(DecodeStore(bytes, &out, &err));
  EXPECT_NE(err.find("trailing"), std::string::npos) << err;
}

TEST(StoreFormat, BadHeaderRejected) {
  const std::string good = EncodeStore(SampleStore());
  StoreFile out;
  for (size_t byte : {size_t{0}, size_t{1}, size_t{2}}) {  // magic0/magic1/version
    std::string bad = good;
    bad[byte] = static_cast<char>(bad[byte] ^ 0x5a);
    std::string err;
    EXPECT_FALSE(DecodeStore(bad, &out, &err)) << "header byte " << byte;
  }
  // Earlier versions — 3 with fingerprint tables, 4 with JSON records — are
  // rejected strictly.
  std::string err;
  for (int v : {3, 4}) {
    std::string old_version = good;
    old_version[2] = static_cast<char>(v);
    EXPECT_FALSE(DecodeStore(old_version, &out, &err));
    EXPECT_NE(err.find("unsupported store version " + std::to_string(v)), std::string::npos)
        << err;
  }
  // Unknown flag bits are a format extension signal, not noise to ignore.
  std::string bad = good;
  bad[3] = static_cast<char>(bad[3] | 0x80);
  EXPECT_FALSE(DecodeStore(bad, &out, &err));
}

TEST(StoreFormat, RandomBytesFuzz) {
  Rng rng(0xdecade);
  StoreFile out;
  for (int round = 0; round < 300; ++round) {
    std::string bytes;
    const int len = static_cast<int>(rng.Below(200));
    for (int i = 0; i < len; ++i) {
      bytes.push_back(static_cast<char>(rng.Below(256)));
    }
    if (rng.Chance(1, 2) && bytes.size() >= kStoreHeaderSize) {
      // Half the rounds get a valid header so the body decoders get hit.
      bytes[0] = static_cast<char>(kStoreMagic0);
      bytes[1] = static_cast<char>(kStoreMagic1);
      bytes[2] = static_cast<char>(kStoreVersion);
      bytes[3] = static_cast<char>(rng.Below(4));
    }
    std::string err;
    DecodeStore(bytes, &out, &err);  // must not crash or over-read
  }
}

TEST(StoreFormat, MutatedByteFuzz) {
  const std::string good = EncodeStore(SampleStore());
  Rng rng(0xbadc0de);
  for (int round = 0; round < 300; ++round) {
    std::string bytes = good;
    const int flips = 1 + static_cast<int>(rng.Below(3));
    for (int i = 0; i < flips; ++i) {
      bytes[rng.Below(bytes.size())] ^= static_cast<char>(1 + rng.Below(255));
    }
    StoreFile out;
    std::string err;
    if (DecodeStore(bytes, &out, &err)) {
      // An accepted mutation is a canonical store in its own right.
      EXPECT_EQ(EncodeStore(out), bytes) << "round " << round;
    }
  }
}

TEST(StoreFormat, FileRoundTripAndMissingFile) {
  StorePath path("file_round_trip");
  StoreFile sf = SampleStore();
  std::string err;
  ASSERT_TRUE(WriteStoreFile(path.get(), sf, &err)) << err;
  StoreFile back;
  ASSERT_TRUE(ReadStoreFile(path.get(), &back, &err)) << err;
  EXPECT_EQ(EncodeStore(back), EncodeStore(sf));
  StoreFile missing;
  EXPECT_FALSE(ReadStoreFile(path.get() + ".nope", &missing, &err));
}

// ---------------------------------------------------------------------------
// Warm start
// ---------------------------------------------------------------------------

TEST(StoreSession, WarmStartIsByteIdenticalAndFree) {
  StorePath path("warm_start");
  std::vector<ModuleSources> corpus = SmallCorpus();

  AnalysisSession cold = LinkedPipeline().ForEachModule(corpus).BuildSession();
  SessionResult cold_result = cold.RunLinked();
  ASSERT_TRUE(cold.link_stats().converged);
  std::string err;
  ASSERT_TRUE(cold.SaveStore(path.get(), &err)) << err;

  // The daemon restart shape: same corpus re-registered, then LoadStore.
  AnalysisSession warm = LinkedPipeline().ForEachModule(corpus).BuildSession();
  ASSERT_TRUE(warm.LoadStore(path.get(), &err)) << err;
  SessionResult warm_result = warm.RunLinked();
  ASSERT_TRUE(warm.link_stats().converged);
  EXPECT_EQ(warm.link_stats().rounds, 1) << "warm relink must be one idle round";
  EXPECT_EQ(warm.link_stats().module_analyses, 0);
  EXPECT_EQ(Dump(warm_result.findings), Dump(cold_result.findings));
  EXPECT_EQ(warm_result.modules_reused, static_cast<int>(corpus.size()));
}

TEST(StoreSession, WarmStartAdoptsStoreOnlyModules) {
  StorePath path("adopt");
  std::vector<ModuleSources> corpus = SmallCorpus();
  AnalysisSession cold = LinkedPipeline().ForEachModule(corpus).BuildSession();
  SessionResult cold_result = cold.RunLinked();
  std::string err;
  ASSERT_TRUE(cold.SaveStore(path.get(), &err)) << err;

  // An empty session: every module comes from the store (sources included).
  AnalysisSession warm = LinkedPipeline().BuildSession();
  ASSERT_TRUE(warm.LoadStore(path.get(), &err)) << err;
  EXPECT_EQ(warm.module_count(), corpus.size());
  SessionResult warm_result = warm.RunLinked();
  EXPECT_EQ(warm.link_stats().module_analyses, 0);
  EXPECT_EQ(Dump(warm_result.findings), Dump(cold_result.findings));
}

TEST(StoreSession, WarmEditMatchesColdEdit) {
  StorePath path("warm_edit");
  std::vector<ModuleSources> corpus = SmallCorpus();
  {
    AnalysisSession s = LinkedPipeline().ForEachModule(corpus).BuildSession();
    s.RunLinked();
    std::string err;
    ASSERT_TRUE(s.SaveStore(path.get(), &err)) << err;
  }

  const std::string fn = SynthFuncName(LinkedModulePrefix(1), 5);
  const std::string def =
      "void " + fn + "(int n) {\n  int pad[16]; pad[0] = n;\n  msleep(n);\n}\n";

  AnalysisSession warm = LinkedPipeline().ForEachModule(corpus).BuildSession();
  std::string err;
  ASSERT_TRUE(warm.LoadStore(path.get(), &err)) << err;
  ASSERT_TRUE(warm.ReplaceFunction("mod_01", fn, def));
  SessionResult warm_result = warm.RunLinked();
  ASSERT_TRUE(warm.link_stats().converged);
  // Only the edited component re-analyzes over the restored table.
  EXPECT_LT(warm.link_stats().module_analyses,
            warm.link_stats().rounds * static_cast<int>(corpus.size()));

  AnalysisSession cold = LinkedPipeline().ForEachModule(corpus).BuildSession();
  ASSERT_TRUE(cold.ReplaceFunction("mod_01", fn, def));
  SessionResult cold_result = cold.RunLinked();
  EXPECT_EQ(Dump(warm_result.findings), Dump(cold_result.findings));
}

TEST(StoreSession, StaleCorpusDigestRejected) {
  StorePath path("stale_digest");
  std::vector<ModuleSources> corpus = SmallCorpus();
  AnalysisSession s = LinkedPipeline().ForEachModule(corpus).BuildSession();
  s.RunLinked();
  std::string err;
  ASSERT_TRUE(s.SaveStore(path.get(), &err)) << err;

  // A different recipe (different tool set) must refuse the facts.
  PipelineBuilder other;
  other.Tool("blockstop");
  AnalysisSession mismatched = other.ForEachModule(corpus).BuildSession();
  EXPECT_FALSE(mismatched.LoadStore(path.get(), &err));
  EXPECT_NE(err.find("digest"), std::string::npos) << err;
  // ... while the identical recipe accepts them; shard count is NOT part of
  // the digest (it cannot change results).
  AnalysisSession sharded = LinkedPipeline(3).ForEachModule(corpus).BuildSession();
  EXPECT_TRUE(sharded.LoadStore(path.get(), &err)) << err;
}

TEST(StoreSession, CorruptAndMalformedStoresRejected) {
  StorePath path("corrupt");
  std::vector<ModuleSources> corpus = SmallCorpus();
  AnalysisSession s = LinkedPipeline().ForEachModule(corpus).BuildSession();
  SessionResult cold_result = s.RunLinked();
  std::string err;
  ASSERT_TRUE(s.SaveStore(path.get(), &err)) << err;

  // A malformed summary row (its leading row-kind byte is not a bool) fails
  // the load atomically. The last row's encoding ends the file.
  StoreFile sf;
  ASSERT_TRUE(ReadStoreFile(path.get(), &sf, &err)) << err;
  ASSERT_FALSE(sf.summaries.empty());
  std::string bytes = EncodeStore(sf);
  bytes[bytes.size() - sf.summaries.rbegin()->second.Encode().size()] = 2;
  {
    std::ofstream out(path.get(), std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  EXPECT_FALSE(ReadStoreFile(path.get(), &sf, &err));
  AnalysisSession fresh = LinkedPipeline().ForEachModule(corpus).BuildSession();
  EXPECT_FALSE(fresh.LoadStore(path.get(), &err));
  // The failed load left the session cold but intact: a cold run still
  // produces the canonical result.
  SessionResult after = fresh.RunLinked();
  EXPECT_EQ(Dump(after.findings), Dump(cold_result.findings));
}

TEST(StoreSession, UnconvergedStoreRecoversIdentically) {
  StorePath path("unconverged");
  std::vector<ModuleSources> corpus = SmallCorpus();
  AnalysisSession s = LinkedPipeline().ForEachModule(corpus).BuildSession();
  SessionResult cold_result = s.RunLinked();
  std::string err;
  ASSERT_TRUE(s.SaveStore(path.get(), &err)) << err;

  // Simulate a mid-run crash: same table, converged bit off. The loader
  // must distrust round attribution and mark everything dirty.
  StoreFile sf;
  ASSERT_TRUE(ReadStoreFile(path.get(), &sf, &err)) << err;
  sf.converged = false;
  ASSERT_TRUE(WriteStoreFile(path.get(), sf, &err)) << err;

  AnalysisSession warm = LinkedPipeline().ForEachModule(corpus).BuildSession();
  ASSERT_TRUE(warm.LoadStore(path.get(), &err)) << err;
  SessionResult recovered = warm.RunLinked();
  ASSERT_TRUE(warm.link_stats().converged);
  EXPECT_GT(warm.link_stats().module_analyses, 0) << "recovery must re-derive";
  EXPECT_EQ(Dump(recovered.findings), Dump(cold_result.findings));
}

// ---------------------------------------------------------------------------
// Distributed relink (in-process workers via the run_worker hook)
// ---------------------------------------------------------------------------

DistributedLinkOptions InProcessOptions(const std::string& store, int workers) {
  DistributedLinkOptions opts;
  opts.store_path = store;
  opts.workers = workers;
  opts.run_worker = [store](const std::vector<std::string>& modules, std::string* err) {
    return AnalysisSession::RunStoreWorker(LinkedPipeline().Build(), store, modules, err);
  };
  return opts;
}

TEST(StoreDistributed, MatchesSingleProcessAcrossWorkerCounts) {
  std::vector<ModuleSources> corpus = SmallCorpus();
  AnalysisSession single = LinkedPipeline().ForEachModule(corpus).BuildSession();
  SessionResult golden = single.RunLinked();
  ASSERT_TRUE(single.link_stats().converged);

  for (int workers : {1, 2, 3}) {
    StorePath path("dist_w" + std::to_string(workers));
    AnalysisSession dist = LinkedPipeline().ForEachModule(corpus).BuildSession();
    SessionResult result = dist.RunLinkedDistributed(InProcessOptions(path.get(), workers));
    ASSERT_TRUE(dist.link_stats().converged) << "workers=" << workers;
    EXPECT_EQ(Dump(result.findings), Dump(golden.findings)) << "workers=" << workers;
    EXPECT_EQ(dist.link_stats().rounds, single.link_stats().rounds);
    EXPECT_EQ(dist.link_stats().module_analyses, single.link_stats().module_analyses);
    EXPECT_EQ(dist.link_stats().summary_rows, single.link_stats().summary_rows);
    // The saved store is itself a valid warm start.
    AnalysisSession warm = LinkedPipeline().ForEachModule(corpus).BuildSession();
    std::string err;
    ASSERT_TRUE(warm.LoadStore(path.get(), &err)) << err;
    SessionResult rewarm = warm.RunLinked();
    EXPECT_EQ(warm.link_stats().module_analyses, 0);
    EXPECT_EQ(Dump(rewarm.findings), Dump(golden.findings));
  }
}

TEST(StoreDistributed, RelinkAfterEditMatchesSingleProcess) {
  // Both drivers run one fixpoint loop, so the distributed relinks replay
  // from the same link memo and rebuild the same stale findings as the
  // in-process ones: findings and stats agree after every edit.
  LinkedCorpusOptions opt;
  opt.modules = 4;
  opt.functions = 24;
  opt.seed = 13;
  const std::vector<ModuleSources> corpus = GenerateLinkedCorpus(opt);
  StorePath path("dist_relink");
  const DistributedLinkOptions opts = InProcessOptions(path.get(), 3);
  AnalysisSession single = LinkedPipeline().ForEachModule(corpus).BuildSession();
  AnalysisSession dist = LinkedPipeline().ForEachModule(corpus).BuildSession();
  auto relink_both = [&](const std::string& step) {
    SessionResult want = single.RunLinked();
    SessionResult got = dist.RunLinkedDistributed(opts);
    const LinkStats& s = single.link_stats();
    const LinkStats& d = dist.link_stats();
    EXPECT_TRUE(s.converged) << step;
    EXPECT_TRUE(d.converged) << step;
    EXPECT_EQ(Dump(got.findings), Dump(want.findings)) << step;
    EXPECT_EQ(d.rounds, s.rounds) << step;
    EXPECT_EQ(d.module_analyses, s.module_analyses) << step;
    EXPECT_EQ(d.memo_hits, s.memo_hits) << step;
    EXPECT_EQ(d.findings_rebuilds, s.findings_rebuilds) << step;
  };
  relink_both("cold");

  // A -> B: a mid-chain function of mod_01 becomes a blocking leaf.
  ASSERT_EQ(corpus[1].name, "mod_01");
  const std::string fn = SynthFuncName(LinkedModulePrefix(1), 7);
  const std::string b_def = "void " + fn + "(int n) {\n  int pad[8]; pad[0] = n;\n  msleep(n);\n}\n";
  ASSERT_TRUE(single.ReplaceFunction("mod_01", fn, b_def));
  ASSERT_TRUE(dist.ReplaceFunction("mod_01", fn, b_def));
  relink_both("A -> B");
  EXPECT_GT(single.link_stats().memo_hits, 0);

  // B -> A: the original sources.
  ASSERT_TRUE(single.ReplaceModuleSources("mod_01", corpus[1].files));
  ASSERT_TRUE(dist.ReplaceModuleSources("mod_01", corpus[1].files));
  relink_both("B -> A");
  EXPECT_GT(single.link_stats().memo_hits, 0);
}

TEST(StoreDistributed, WorkerFailureLeavesRunResumable) {
  StorePath path("dist_fail");
  std::vector<ModuleSources> corpus = SmallCorpus();
  AnalysisSession single = LinkedPipeline().ForEachModule(corpus).BuildSession();
  SessionResult golden = single.RunLinked();

  AnalysisSession dist = LinkedPipeline().ForEachModule(corpus).BuildSession();
  DistributedLinkOptions failing = InProcessOptions(path.get(), 3);
  failing.run_worker = [&path](const std::vector<std::string>& modules, std::string* err) {
    for (const std::string& m : modules) {
      if (m == "mod_01") {
        *err = "worker died (test hook)";
        return false;  // deterministic mid-round death, shard unreported
      }
    }
    return AnalysisSession::RunStoreWorker(LinkedPipeline().Build(), path.get(), modules, err);
  };
  SessionResult failed = dist.RunLinkedDistributed(failing);
  EXPECT_FALSE(dist.link_stats().converged);
  bool reported = false;
  for (const Finding& f : failed.findings) {
    reported = reported || f.message.find("distributed relink failed") != std::string::npos;
  }
  EXPECT_TRUE(reported) << "a worker failure must surface as a finding";

  // Same session retries: dirty modules stayed dirty, the store stayed
  // consistent — the rerun converges to the canonical bytes.
  SessionResult retried = dist.RunLinkedDistributed(InProcessOptions(path.get(), 2));
  ASSERT_TRUE(dist.link_stats().converged);
  EXPECT_EQ(Dump(retried.findings), Dump(golden.findings));

  // And so does a cold process pointed at the store the failure left behind.
  AnalysisSession fresh = LinkedPipeline().ForEachModule(corpus).BuildSession();
  std::string err;
  ASSERT_TRUE(fresh.LoadStore(path.get(), &err)) << err;
  SessionResult resumed = fresh.RunLinked();
  ASSERT_TRUE(fresh.link_stats().converged);
  EXPECT_EQ(Dump(resumed.findings), Dump(golden.findings));
}

}  // namespace
}  // namespace ivy
