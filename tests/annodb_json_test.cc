// Tests for the §3.2 annotation repository and its JSON substrate.
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "src/annodb/annodb.h"
#include "src/driver/compiler.h"
#include "src/support/json.h"
#include "src/support/rng.h"
#include "src/tool/analysis_context.h"
#include "src/tool/pipeline.h"

namespace ivy {
namespace {

TEST(Json, ScalarRoundTrip) {
  std::string err;
  EXPECT_EQ(Json::Parse("42", &err).AsInt(), 42);
  EXPECT_EQ(Json::Parse("-17", &err).AsInt(), -17);
  EXPECT_TRUE(Json::Parse("true", &err).AsBool());
  EXPECT_FALSE(Json::Parse("false", &err).AsBool(true));
  EXPECT_TRUE(Json::Parse("null", &err).is_null());
  EXPECT_DOUBLE_EQ(Json::Parse("2.5", &err).AsDouble(), 2.5);
  EXPECT_EQ(Json::Parse("\"a\\nb\"", &err).AsString(), "a\nb");
}

TEST(Json, NestedStructures) {
  std::string err;
  Json j = Json::Parse(R"({"a": [1, 2, {"b": "c"}], "d": {}})", &err);
  EXPECT_TRUE(err.empty()) << err;
  const Json* a = j.Find("a");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->size(), 3u);
  EXPECT_EQ(a->At(1).AsInt(), 2);
  EXPECT_EQ(a->At(2).Find("b")->AsString(), "c");
}

TEST(Json, DumpParseIdentity) {
  Json j = Json::MakeObject();
  j["name"] = Json::MakeString("kmalloc");
  j["blocking"] = Json::MakeBool(true);
  Json arr = Json::MakeArray();
  arr.Append(Json::MakeInt(-12));
  arr.Append(Json::MakeInt(-22));
  j["codes"] = std::move(arr);
  std::string text = j.Dump();
  std::string err;
  Json back = Json::Parse(text, &err);
  EXPECT_TRUE(err.empty()) << err;
  EXPECT_EQ(back.Dump(), text);
}

TEST(Json, ErrorsReported) {
  std::string err;
  Json::Parse("{broken", &err);
  EXPECT_FALSE(err.empty());
  err.clear();
  Json::Parse("[1, 2", &err);
  EXPECT_FALSE(err.empty());
  err.clear();
  Json::Parse("\"unterminated", &err);
  EXPECT_FALSE(err.empty());
}

TEST(Json, EscapesInDump) {
  Json j = Json::MakeString("tab\there \"quoted\"\n");
  std::string text = j.Dump(-1);
  std::string err;
  EXPECT_EQ(Json::Parse(text, &err).AsString(), "tab\there \"quoted\"\n");
}

// ---------------------------------------------------------------------------
// \u escape decoding (the strtol-truncation bugfix): hex is validated, code
// points come out as real UTF-8, surrogate pairs combine, and every malformed
// escape is a parse error — not silent garbage.
// ---------------------------------------------------------------------------

TEST(Json, UnicodeEscapeDecodesToUtf8) {
  std::string err;
  EXPECT_EQ(Json::Parse("\"\\u00e9\"", &err).AsString(), "\xc3\xa9");  // é
  EXPECT_TRUE(err.empty()) << err;
  EXPECT_EQ(Json::Parse("\"\\u0041\"", &err).AsString(), "A");
  EXPECT_EQ(Json::Parse("\"\\u4e2d\"", &err).AsString(), "\xe4\xb8\xad");  // 中
  // Control characters (what the writer itself emits as \u00XX).
  EXPECT_EQ(Json::Parse("\"\\u0007\"", &err).AsString(), "\x07");
  EXPECT_EQ(Json::Parse("\"\\u0000\"", &err).AsString(), std::string(1, '\0'));
}

TEST(Json, SurrogatePairsCombine) {
  std::string err;
  // U+1F600 as \ud83d\ude00 -> 4-byte UTF-8.
  EXPECT_EQ(Json::Parse("\"\\ud83d\\ude00\"", &err).AsString(), "\xf0\x9f\x98\x80");
  EXPECT_TRUE(err.empty()) << err;
}

TEST(Json, MalformedUnicodeEscapesAreErrors) {
  // Before the fix: "\u12" decoded as garbage, "\uZZZZ" as code point 0,
  // and a truncated escape was swallowed. All must Fail() now.
  for (const char* bad : {
           "\"\\u12\"",          // truncated hex
           "\"\\u\"",            // no hex at all
           "\"\\uZZZZ\"",        // non-hex digits
           "\"\\u00g1\"",        // one bad digit
           "\"\\ud83d\"",        // lone high surrogate
           "\"\\ud83dx\"",       // high surrogate, no \u follows
           "\"\\ud83d\\u0041\"", // high surrogate + non-low-surrogate
           "\"\\ude00\"",        // lone low surrogate
           "\"\\q\"",            // unknown escape
           "\"\\u123",           // EOF inside the escape
       }) {
    std::string err;
    Json::Parse(bad, &err);
    EXPECT_FALSE(err.empty()) << "accepted: " << bad;
  }
}

TEST(Json, WriterEscapeRoundTripsArbitraryBytes) {
  // Seeded fuzz: any byte string the writer escapes must parse back to the
  // same bytes (the writer emits \u00XX for control characters, so this
  // exercises the new decoder on every round).
  Rng rng(0x5eed);
  for (int round = 0; round < 200; ++round) {
    std::string s;
    const int len = static_cast<int>(rng.Below(40));
    for (int i = 0; i < len; ++i) {
      s.push_back(static_cast<char>(rng.Below(256)));
    }
    std::string text = Json::MakeString(s).Dump(-1);
    std::string err;
    Json back = Json::Parse(text, &err);
    ASSERT_TRUE(err.empty()) << err << " for " << text;
    EXPECT_EQ(back.AsString(), s);
  }
}

const char* kSmallKernel = R"(
  struct item { struct item* opt next; int v; };
  int pool_lock;
  int get_item(struct item* it) errcode(-1) {
    if (!it) { return -1; }
    return it->v;
  }
  void reaper(void) blocking { msleep(5); }
)";

TEST(AnnoDb, ExtractCapturesAttributes) {
  auto comp = CompileOne(kSmallKernel, ToolConfig{});
  ASSERT_TRUE(comp->ok) << comp->Errors();
  AnnoDb db = AnnoDb::Extract(comp->prog, *comp->sema, comp->module);
  ASSERT_EQ(db.funcs().count("reaper"), 1u);
  EXPECT_TRUE(db.funcs().at("reaper").blocking);
  ASSERT_EQ(db.funcs().count("get_item"), 1u);
  EXPECT_EQ(db.funcs().at("get_item").errcodes, std::vector<int64_t>({-1}));
  ASSERT_EQ(db.records().count("item"), 1u);
  EXPECT_EQ(db.records().at("item").ptr_offsets, std::vector<int64_t>({0}));
}

TEST(AnnoDb, JsonRoundTripPreservesFacts) {
  auto comp = CompileOne(kSmallKernel, ToolConfig{});
  ASSERT_TRUE(comp->ok);
  AnnoDb db = AnnoDb::Extract(comp->prog, *comp->sema, comp->module);
  std::string err;
  AnnoDb back = AnnoDb::FromJson(Json::Parse(db.ToJson().Dump(), &err));
  EXPECT_TRUE(err.empty()) << err;
  EXPECT_EQ(back.funcs().size(), db.funcs().size());
  EXPECT_TRUE(back.funcs().at("reaper").blocking);
  EXPECT_EQ(back.records().at("item").size, db.records().at("item").size);
}

TEST(AnnoDb, MergeFillsGapsAndUnionsFacts) {
  Json a = Json::MakeObject();
  a["functions"]["f"]["blocking"] = Json::MakeBool(false);
  Json b = Json::MakeObject();
  b["functions"]["f"]["blocking"] = Json::MakeBool(true);
  b["functions"]["g"]["blocking"] = Json::MakeBool(false);
  AnnoDb da = AnnoDb::FromJson(a);
  AnnoDb dbb = AnnoDb::FromJson(b);
  int added = da.Merge(dbb);
  EXPECT_EQ(added, 1);                       // g is new
  EXPECT_TRUE(da.funcs().at("f").blocking);  // blocking OR-ed conservatively
}

TEST(AnnoDb, MergeDeduplicatesFindings) {
  auto make_finding = [](const std::string& tool, int32_t line, const std::string& msg) {
    Finding f;
    f.tool = tool;
    f.severity = FindingSeverity::kWarning;
    f.loc = SourceLoc{0, line, 4};
    f.message = msg;
    return f;
  };
  AnnoDb a;
  a.SetFindings({make_finding("blockstop", 10, "call may block"),
                 make_finding("errcheck", 20, "discarded error")});
  AnnoDb b;
  b.SetFindings({make_finding("blockstop", 10, "call may block"),   // dup of a[0]
                 make_finding("blockstop", 10, "different message"),  // same loc, new msg
                 make_finding("stackcheck", 0, "budget exceeded")});
  a.Merge(b);
  ASSERT_EQ(a.findings().size(), 4u);  // 2 + 2 new, 1 dup dropped
  EXPECT_EQ(a.findings()[2].message, "different message");
  EXPECT_EQ(a.findings()[3].tool, "stackcheck");

  // Round trip, then re-merge the same database: idempotent.
  std::string err;
  AnnoDb back = AnnoDb::FromJson(Json::Parse(a.ToJson().Dump(), &err));
  EXPECT_TRUE(err.empty()) << err;
  ASSERT_EQ(back.findings().size(), 4u);
  back.Merge(a);
  EXPECT_EQ(back.findings().size(), 4u) << "re-merging the same export must not duplicate";
  back.Merge(b);
  EXPECT_EQ(back.findings().size(), 4u);
}

TEST(AnnoDb, MergeSelfIsIdempotentForPipelineExports) {
  // The regression the ROADMAP calls out: two pipeline runs over the same
  // sources, exported and merged, used to double every finding.
  auto comp = CompileOne(kSmallKernel, ToolConfig{});
  ASSERT_TRUE(comp->ok) << comp->Errors();
  AnalysisContext ctx(comp.get());
  Pipeline p = PipelineBuilder().Tool("blockstop").Tool("errcheck").Build();
  PipelineResult result = p.RunTools(ctx);
  AnnoDb first = AnnoDb::Extract(ctx, &result);
  AnnoDb second = AnnoDb::Extract(ctx, &result);
  size_t baseline = first.findings().size();
  first.Merge(second);
  EXPECT_EQ(first.findings().size(), baseline);
}

// ---------------------------------------------------------------------------
// Strict param_points indices (the atoi-aliasing bugfix): a malformed key
// rejects the row with a diagnostic instead of corrupting parameter 0.
// ---------------------------------------------------------------------------

std::string UsageRowWithKey(const std::string& key) {
  return std::string(R"({"summaries": [{"module": "net", "function": "recv", )") +
         R"("defined": false, "param_points": {")" + key + R"(": ["heap"]}}]})";
}

TEST(AnnoDb, MalformedParamPointsKeyRejectsRow) {
  for (const char* bad : {"abc", "01", "7x", " 3", "-1", "", "99999"}) {
    std::string err;
    Json j = Json::Parse(UsageRowWithKey(bad), &err);
    ASSERT_TRUE(err.empty()) << err;
    std::vector<std::string> errors;
    AnnoDb db = AnnoDb::FromJson(j, &errors);
    EXPECT_EQ(db.summaries().size(), 0u) << "row with key '" << bad << "' loaded";
    ASSERT_EQ(errors.size(), 1u) << "no diagnostic for key '" << bad << "'";
    EXPECT_NE(errors[0].find("param_points"), std::string::npos) << errors[0];
    EXPECT_NE(errors[0].find("net:recv"), std::string::npos) << errors[0];
  }
}

TEST(AnnoDb, WellFormedParamPointsKeyLoads) {
  std::string err;
  Json j = Json::Parse(UsageRowWithKey("3"), &err);
  ASSERT_TRUE(err.empty()) << err;
  std::vector<std::string> errors;
  AnnoDb db = AnnoDb::FromJson(j, &errors);
  EXPECT_TRUE(errors.empty());
  ASSERT_EQ(db.summaries().size(), 1u);
  const FuncSummary& s = db.summaries().begin()->second;
  ASSERT_EQ(s.param_points.count(3), 1u);
  EXPECT_EQ(s.param_points.at(3), std::vector<std::string>({"heap"}));
  EXPECT_EQ(s.param_points.count(0), 0u) << "index 3 must not alias onto 0";
}

TEST(AnnoDb, StrictRowFailureDoesNotAbortSiblings) {
  // One bad row in a list must not take the good ones down with it.
  std::string text =
      R"({"summaries": [)"
      R"({"module": "a", "function": "ok1", "defined": false},)"
      R"({"module": "a", "function": "bad", "defined": false, "param_points": {"x": []}},)"
      R"({"module": "a", "function": "ok2", "defined": false}]})";
  std::string err;
  Json j = Json::Parse(text, &err);
  ASSERT_TRUE(err.empty()) << err;
  std::vector<std::string> errors;
  AnnoDb db = AnnoDb::FromJson(j, &errors);
  EXPECT_EQ(db.summaries().size(), 2u);
  EXPECT_EQ(db.summaries().count({"a", "ok1"}), 1u);
  EXPECT_EQ(db.summaries().count({"a", "ok2"}), 1u);
  ASSERT_EQ(errors.size(), 1u);
}

// ---------------------------------------------------------------------------
// The binary codec of summary rows and findings (src/support/field_list.h).
// Seeded properties over random values: two values have equal encodings
// exactly when they have equal JSON — including pairs that differ only in
// fields the JSON omits — Decode inverts Encode, and the strict decoders
// accept no strict prefix and re-encode any mutation they accept to itself.
// ---------------------------------------------------------------------------

// Small pools, so independent draws collide often; they include bytes the
// JSON escapes, non-ASCII and an embedded NUL.
std::string PickString(Rng& rng) {
  static const std::vector<std::string> kPool = {
      "", "a", "f", "mod_01", "calls f", "q\"uote", "tab\there", "\xc3\xa9",
      std::string("n\0l", 3)};
  return kPool[rng.Below(kPool.size())];
}

std::vector<std::string> PickStrings(Rng& rng) {
  std::vector<std::string> v(rng.Below(3));
  for (std::string& s : v) {
    s = PickString(rng);
  }
  return v;
}

std::vector<int64_t> PickInts(Rng& rng) {
  static const int64_t kPool[] = {-12, -1, 0, 7, INT64_MIN, INT64_MAX};
  std::vector<int64_t> v(rng.Below(3));
  for (int64_t& x : v) {
    x = kPool[rng.Below(6)];
  }
  return v;
}

// Mutates one field of `s`, chosen at random among all of them (the ones
// the JSON omits for this row kind included).
void MutateSummary(Rng& rng, FuncSummary* s) {
  static const int64_t kStack[] = {-7, -1, 0, 96};
  switch (rng.Below(19)) {
    case 0: s->module = PickString(rng); break;
    case 1: s->function = PickString(rng); break;
    case 2: s->defined = !s->defined; break;
    case 3: s->may_block = rng.Chance(1, 2); break;
    case 4: s->block_witness = PickString(rng); break;
    case 5: s->blocking = rng.Chance(1, 2); break;
    case 6: s->noblock = rng.Chance(1, 2); break;
    case 7: s->blocking_if_param = static_cast<int>(rng.Range(-1, 2)); break;
    case 8: s->returns_error = rng.Chance(1, 2); break;
    case 9: s->errcodes = PickInts(rng); break;
    case 10: s->frame_size = rng.Range(-1, 2) * 64; break;
    case 11: s->callees = PickStrings(rng); break;
    case 12: s->returns_points = PickStrings(rng); break;
    case 13: s->locks_acquired = PickStrings(rng); break;
    case 14: s->stack_below = kStack[rng.Below(4)]; break;
    case 15: s->cross_recursive = rng.Chance(1, 2); break;
    case 16: s->entered_atomic = rng.Chance(1, 2); break;
    case 17: s->entered_in_irq = rng.Chance(1, 2); break;
    default: {
      s->param_points.clear();
      for (int n = static_cast<int>(rng.Below(3)); n > 0; --n) {
        s->param_points[static_cast<int>(rng.Below(4))] = PickStrings(rng);
      }
    }
  }
}

FuncSummary RandomSummary(Rng& rng) {
  FuncSummary s;
  for (int i = 0; i < 40; ++i) {
    MutateSummary(rng, &s);
  }
  return s;
}

void MutateFinding(Rng& rng, Finding* f) {
  switch (rng.Below(8)) {
    case 0: f->tool = PickString(rng); break;
    case 1: f->severity = static_cast<FindingSeverity>(rng.Below(3)); break;
    case 2: f->loc.file = static_cast<int32_t>(rng.Range(-1, 1)); break;
    case 3: f->loc.line = static_cast<int32_t>(rng.Range(0, 2)); break;
    case 4: f->loc.col = rng.Chance(1, 4) ? INT32_MIN : static_cast<int32_t>(rng.Range(0, 2)); break;
    case 5: f->message = PickString(rng); break;
    case 6: f->witness = PickStrings(rng); break;
    default: f->module = PickString(rng); break;
  }
}

Finding RandomFinding(Rng& rng) {
  Finding f;
  for (int i = 0; i < 16; ++i) {
    MutateFinding(rng, &f);
  }
  return f;
}

auto SummaryFieldsTied(const FuncSummary& s) {
  return std::tie(s.module, s.function, s.defined, s.may_block, s.block_witness, s.blocking,
                  s.noblock, s.blocking_if_param, s.returns_error, s.errcodes, s.frame_size,
                  s.callees, s.returns_points, s.locks_acquired, s.stack_below,
                  s.cross_recursive, s.entered_atomic, s.entered_in_irq, s.param_points);
}

auto FindingFieldsTied(const Finding& f) {
  return std::tie(f.tool, f.severity, f.loc.file, f.loc.line, f.loc.col, f.message,
                  f.witness, f.module);
}

// The pair and round-trip properties for one record type: pairs are a value
// and a one-field mutation of it, or (every fourth round) two independent
// values. Returns how many pairs had equal JSON although some field differed
// in memory.
template <typename T, typename Random, typename Mutate, typename Tied>
int CheckEncodingMatchesJson(uint64_t seed, Random random, Mutate mutate, Tied tied) {
  Rng rng(seed);
  int hidden_equal = 0;
  for (int round = 0; round < 2000; ++round) {
    const T a = random(rng);
    T b = a;
    if (round % 4 == 0) {
      b = random(rng);
    } else {
      mutate(rng, &b);
    }
    const std::string ja = a.ToJson().Dump(-1);
    const std::string jb = b.ToJson().Dump(-1);
    EXPECT_EQ(a.Encode() == b.Encode(), ja == jb)
        << "round " << round << ": " << ja << " vs " << jb;
    if (ja == jb && tied(a) != tied(b)) {
      ++hidden_equal;
    }
    T back;
    if (!T::Decode(a.Encode(), &back)) {
      ADD_FAILURE() << "own encoding rejected: " << ja;
      continue;
    }
    EXPECT_EQ(back.Encode(), a.Encode());
    EXPECT_EQ(back.ToJson().Dump(-1), ja);
  }
  return hidden_equal;
}

// Every strict prefix of an encoding is rejected, and any mutated or random
// input the decoder accepts re-encodes to itself.
template <typename T, typename Random>
void FuzzDecoder(uint64_t seed, Random random) {
  Rng rng(seed);
  T out;
  for (int round = 0; round < 300; ++round) {
    const std::string good = random(rng).Encode();
    for (size_t n = 0; n < good.size(); ++n) {
      EXPECT_FALSE(T::Decode(good.substr(0, n), &out)) << "prefix of " << n << " bytes accepted";
    }
    std::string bytes = good;
    const int flips = 1 + static_cast<int>(rng.Below(3));
    for (int i = 0; i < flips; ++i) {
      bytes[rng.Below(bytes.size())] ^= static_cast<char>(1 + rng.Below(255));
    }
    if (T::Decode(bytes, &out)) {
      EXPECT_EQ(out.Encode(), bytes) << "mutation accepted but not canonical, round " << round;
    }
    std::string junk(rng.Below(64), '\0');
    for (char& c : junk) {
      c = static_cast<char>(rng.Below(256));
    }
    if (T::Decode(junk, &out)) {
      EXPECT_EQ(out.Encode(), junk) << "junk accepted but not canonical, round " << round;
    }
  }
}

TEST(BinaryCodec, SummaryEncodingMatchesJsonAndRoundTrips) {
  const int hidden = CheckEncodingMatchesJson<FuncSummary>(0xc0dec, RandomSummary,
                                                           MutateSummary, SummaryFieldsTied);
  // The rows differing only in the other row kind's fields, an absent
  // stack depth's sign and the like really were generated.
  EXPECT_GT(hidden, 50);
}

TEST(BinaryCodec, FindingEncodingMatchesJsonAndRoundTrips) {
  CheckEncodingMatchesJson<Finding>(0xf1d, RandomFinding, MutateFinding, FindingFieldsTied);
}

TEST(BinaryCodec, SummaryDecoderIsStrictAndTotal) {
  FuzzDecoder<FuncSummary>(0x5ca1e, RandomSummary);
}

TEST(BinaryCodec, FindingDecoderIsStrictAndTotal) {
  FuzzDecoder<Finding>(0xbadf00d, RandomFinding);
}

TEST(AnnoDb, ApplyAttributesEnablesAnalysis) {
  // An unannotated module + a repository entry = BlockStop finds the bug.
  const char* module_src = R"(
    int lk;
    void vendor_wait(void);
    void isr_path(void) {
      spin_lock(&lk);
      vendor_wait();
      spin_unlock(&lk);
    }
  )";
  Json contrib = Json::MakeObject();
  contrib["functions"]["vendor_wait"]["blocking"] = Json::MakeBool(true);
  AnnoDb db = AnnoDb::FromJson(contrib);

  auto comp = CompileOne(module_src, ToolConfig{});
  ASSERT_TRUE(comp->ok) << comp->Errors();
  {
    // One AnalysisContext per program version: ApplyAttributes mutates the
    // program, so the cached analyses must not be carried across it.
    AnalysisContext ctx(comp.get(), /*field_sensitive=*/true);
    BlockStop before(&comp->prog, comp->sema.get(), &ctx.callgraph());
    EXPECT_TRUE(before.Run().violations.empty()) << "no facts, no findings";
  }
  EXPECT_EQ(db.ApplyAttributes(&comp->prog), 1);
  {
    AnalysisContext ctx(comp.get(), /*field_sensitive=*/true);
    BlockStop after(&comp->prog, comp->sema.get(), &ctx.callgraph());
    EXPECT_EQ(after.Run().violations.size(), 1u);
  }
}

}  // namespace
}  // namespace ivy
