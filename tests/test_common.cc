// Unit tests for the common substrate: config, JSON, strings, RNG, stats,
// types.
#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string_view>
#include <vector>

#include "common/config.h"
#include "common/json.h"
#include "common/log.h"
#include "common/random.h"
#include "common/stats.h"
#include "common/string_util.h"
#include "common/types.h"

namespace graphpim {
namespace {

TEST(Types, NsToTicksRoundTrips) {
  EXPECT_EQ(NsToTicks(1.0), 1000u);
  EXPECT_EQ(NsToTicks(13.75), 13750u);
  EXPECT_DOUBLE_EQ(TicksToNs(27500), 27.5);
}

TEST(Types, ComponentNames) {
  EXPECT_STREQ(ToString(DataComponent::kMeta), "meta");
  EXPECT_STREQ(ToString(DataComponent::kStructure), "structure");
  EXPECT_STREQ(ToString(DataComponent::kProperty), "property");
  EXPECT_STREQ(ToString(WorkloadCategory::kGraphTraversal), "GT");
  EXPECT_STREQ(ToString(WorkloadCategory::kRichProperty), "RP");
  EXPECT_STREQ(ToString(WorkloadCategory::kDynamicGraph), "DG");
}

TEST(Config, ParsesArgs) {
  const char* argv[] = {"prog", "--vertices=1024", "mode=GraphPIM", "--scale=1.5",
                        "--fp=true"};
  Config cfg = Config::FromArgs(5, const_cast<char**>(argv));
  EXPECT_EQ(cfg.GetUint("vertices", 0), 1024u);
  EXPECT_EQ(cfg.GetString("mode", ""), "GraphPIM");
  EXPECT_DOUBLE_EQ(cfg.GetDouble("scale", 0.0), 1.5);
  EXPECT_TRUE(cfg.GetBool("fp", false));
}

TEST(Config, DefaultsWhenAbsent) {
  Config cfg;
  EXPECT_EQ(cfg.GetInt("missing", -7), -7);
  EXPECT_EQ(cfg.GetUint("missing", 42), 42u);
  EXPECT_DOUBLE_EQ(cfg.GetDouble("missing", 2.5), 2.5);
  EXPECT_FALSE(cfg.GetBool("missing", false));
  EXPECT_EQ(cfg.GetString("missing", "x"), "x");
  EXPECT_FALSE(cfg.Has("missing"));
}

TEST(Config, BoolSpellings) {
  Config cfg;
  for (const char* v : {"1", "true", "yes", "on"}) {
    cfg.Set("k", v);
    EXPECT_TRUE(cfg.GetBool("k", false)) << v;
  }
  for (const char* v : {"0", "false", "no", "off"}) {
    cfg.Set("k", v);
    EXPECT_FALSE(cfg.GetBool("k", true)) << v;
  }
}

TEST(Config, SetOverrides) {
  Config cfg;
  cfg.Set("a", "1");
  cfg.Set("a", "2");
  EXPECT_EQ(cfg.GetInt("a", 0), 2);
  EXPECT_EQ(cfg.Items().size(), 1u);
}

// The SimError message ParseJson throws for `text`; "" when it parses.
std::string JsonError(const std::string& text) {
  try {
    ParseJson(text);
  } catch (const SimError& e) {
    return e.message();
  }
  return "";
}

TEST(Json, ParsesEveryKindAndKeepsMemberOrder) {
  const JsonValue v = ParseJson(
      " {\"b\":[1,-2.5e3,true,false,null],\r\n\"a\":{\"s\":\"x\\ty\"},\"b\":0}\n");
  ASSERT_EQ(v.kind, JsonValue::Kind::kObj);
  ASSERT_EQ(v.obj.size(), 3u);
  EXPECT_EQ(v.obj[0].first, "b");
  EXPECT_EQ(v.obj[1].first, "a");
  const JsonValue* b = v.Get("b");  // the first of two "b" members
  ASSERT_NE(b, nullptr);
  ASSERT_EQ(b->arr.size(), 5u);
  EXPECT_EQ(b->arr[0].U64(), 1u);
  EXPECT_EQ(b->arr[1].text, "-2.5e3");  // numbers keep their raw token
  EXPECT_DOUBLE_EQ(b->arr[1].Num(), -2500.0);
  EXPECT_EQ(b->arr[2].kind, JsonValue::Kind::kBool);
  EXPECT_TRUE(b->arr[2].boolean);
  EXPECT_FALSE(b->arr[3].boolean);
  EXPECT_EQ(b->arr[4].kind, JsonValue::Kind::kNull);
  EXPECT_EQ(v.Get("a")->Get("s")->text, "x\ty");
  EXPECT_EQ(v.Get("missing"), nullptr);
  EXPECT_EQ(b->Get("b"), nullptr);  // Get on a non-object
  EXPECT_THROW(v.Get("a")->Num(), SimError);
}

TEST(Json, RejectsTrailingContent) {
  EXPECT_EQ(JsonError("{} x"),
            "malformed JSON at offset 3: expected the end of the input");
  EXPECT_NE(JsonError("1 2"), "");
  EXPECT_NE(JsonError("{}{}"), "");
  EXPECT_NE(JsonError(""), "");
  EXPECT_NE(JsonError("[1,]"), "");
  EXPECT_NE(JsonError("{\"a\" 1}"), "");
}

TEST(Json, AcceptsOnlyRfc8259Numbers) {
  for (const char* bad : {"01", "-01", "0x1F", "nan", "-nan", "NaN", "inf",
                          "-inf", "Infinity", "+1", ".5", "1.", "1e", "1e+",
                          "-", "1.5.3", "--1"}) {
    EXPECT_NE(JsonError(bad), "") << bad;
  }
  EXPECT_EQ(JsonError("[0x1]"),
            "malformed JSON at offset 2: expected ',' or ']'");
  for (const char* good : {"0", "-0", "10", "0.5", "-1.25e-3", "1E+9", "2e9"}) {
    EXPECT_EQ(JsonError(good), "") << good;
  }
}

TEST(Json, DecodesEscapesToUtf8) {
  EXPECT_EQ(ParseJson(R"("\u0001")").text, "\x01");
  EXPECT_EQ(ParseJson(R"("\u00e9")").text, "\xc3\xa9");  // e-acute
  EXPECT_EQ(ParseJson(R"("caf\u00C9")").text, "caf\xc3\x89");
  EXPECT_EQ(ParseJson(R"("\u20ac")").text, "\xe2\x82\xac");
  EXPECT_EQ(ParseJson(R"("\ud83d\ude00")").text, "\xf0\x9f\x98\x80");
  EXPECT_EQ(ParseJson(R"("\"\\\/\b\f\n\r\t")").text, "\"\\/\b\f\n\r\t");
  EXPECT_EQ(ParseJson("\"\xc3\xa9\"").text, "\xc3\xa9");  // raw UTF-8
  for (const char* bad : {R"("\u00")", R"("\u00g1")", R"("\x41")",
                          R"("\ude00")", R"("\ud83d")", R"("\ud83dx")",
                          "\"\x01\"", "\"a\nb\"", "\"\xc3\"", "\"\xff\"",
                          "\"\xed\xa0\x80\"", "\"\xc0\xaf\"", "\"abc"}) {
    EXPECT_NE(JsonError(bad), "") << bad;
  }
}

TEST(Json, U64ReadsFullRangeExactly) {
  const JsonValue max = ParseJson("18446744073709551615");
  EXPECT_EQ(max.U64(), 18446744073709551615ull);
  // 2^53 + 1 does not survive a double.
  EXPECT_EQ(ParseJson("9007199254740993").U64(), 9007199254740993ull);
  for (const char* bad : {"18446744073709551616", "-1", "1.0", "1e3", "\"5\""}) {
    EXPECT_THROW(ParseJson(bad).U64(), SimError) << bad;
  }
}

TEST(Json, BoundsNestingDepth) {
  const std::string ok = std::string(kJsonMaxDepth, '[') +
                         std::string(kJsonMaxDepth, ']');
  EXPECT_EQ(JsonError(ok), "");
  const std::string deep(1'000'000, '[');
  EXPECT_EQ(JsonError(deep), StrFormat("malformed JSON at offset %d: expected "
                                       "at most %d levels of nesting",
                                       kJsonMaxDepth, kJsonMaxDepth));
  std::string objects;
  for (int i = 0; i <= kJsonMaxDepth; ++i) objects += "{\"a\":";
  EXPECT_NE(JsonError(objects).find("levels of nesting"), std::string::npos);
}

TEST(Json, ForEachLeafStreamsDottedPathsWithTheSameGrammar) {
  std::vector<std::string> seen;
  ForEachJsonLeaf(
      R"({"a":{"b":[1,{"c":"x"}],"e":{}},"f":[true,null],"g":[]})",
      [&](const std::string& path, const JsonValue& leaf) {
        seen.push_back(path + "=" + (leaf.kind == JsonValue::Kind::kStr
                                         ? leaf.text
                                         : std::to_string(static_cast<int>(leaf.kind))));
      });
  EXPECT_EQ(seen, (std::vector<std::string>{"a.b.0=2", "a.b.1.c=x", "f.0=1",
                                            "f.1=0"}));
  seen.clear();
  ForEachJsonLeaf(" 7 ", [&](const std::string& path, const JsonValue& leaf) {
    seen.push_back(path + "=" + leaf.text);
  });
  EXPECT_EQ(seen, std::vector<std::string>{"=7"});
  // Rejected input throws the same error as ParseJson.
  for (const std::string& bad :
       {std::string("{} x"), std::string("[01]"), std::string(100, '[')}) {
    try {
      ForEachJsonLeaf(bad, [](const std::string&, const JsonValue&) {});
      ADD_FAILURE() << bad;
    } catch (const SimError& e) {
      EXPECT_EQ(e.message(), JsonError(bad));
    }
  }
}

TEST(StringUtil, Split) {
  auto parts = Split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(StringUtil, Trim) {
  EXPECT_EQ(Trim("  hi \t\n"), "hi");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("x"), "x");
}

TEST(StringUtil, StartsWith) {
  EXPECT_TRUE(StartsWith("--flag", "--"));
  EXPECT_FALSE(StartsWith("-", "--"));
}

TEST(StringUtil, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 3, "x"), "3-x");
  EXPECT_EQ(StrFormat("%.2f", 1.5), "1.50");
}

TEST(StringUtil, TextFilesRoundTripBytesAndErrorsNameThePath) {
  const std::string path = ::testing::TempDir() + "/gp_text_file.txt";
  const std::string text = std::string("a\r\nb\0c\xff", 7);
  WriteTextFile(path, text);
  EXPECT_EQ(ReadTextFile(path), text);
  WriteTextFile(path, "");  // replaces, never appends
  EXPECT_EQ(ReadTextFile(path), "");
  const std::vector<std::string_view> parts = {"ab", "", "c\n"};
  WriteTextFile(path, parts);
  EXPECT_EQ(ReadTextFile(path), "abc\n");
  std::remove(path.c_str());
  const std::string missing = "/no-such-dir-anywhere/x.txt";
  for (auto fn : {+[](const std::string& p) { ReadTextFile(p); },
                  +[](const std::string& p) { WriteTextFile(p, "x"); }}) {
    try {
      fn(missing);
      ADD_FAILURE() << "no SimError";
    } catch (const SimError& e) {
      EXPECT_NE(e.message().find("'" + missing + "'"), std::string::npos);
    }
  }
}

TEST(Random, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Random, SeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Random, BoundedStaysInRange) {
  Rng rng(9);
  for (std::uint64_t bound : {1ull, 2ull, 7ull, 1000ull}) {
    for (int i = 0; i < 2000; ++i) {
      EXPECT_LT(rng.NextBounded(bound), bound);
    }
  }
}

TEST(Random, BoundedCoversRange) {
  Rng rng(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.NextBounded(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Random, DoubleInUnitInterval) {
  Rng rng(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Random, BernoulliRate) {
  Rng rng(13);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.NextBool(0.25) ? 1 : 0;
  EXPECT_NEAR(hits / 20000.0, 0.25, 0.02);
}

TEST(Stats, AddIncSetGet) {
  StatRegistry s;
  EXPECT_DOUBLE_EQ(s.Get("x"), 0.0);
  s.Inc("x");
  s.Add("x", 2.5);
  EXPECT_DOUBLE_EQ(s.Get("x"), 3.5);
  s.Set("x", 1.0);
  EXPECT_DOUBLE_EQ(s.Get("x"), 1.0);
  EXPECT_TRUE(s.Has("x"));
}

TEST(Stats, InternIsIdempotent) {
  StatRegistry s;
  const StatId a = s.Intern("hmc.reads");
  const StatId b = s.Intern("hmc.reads");
  EXPECT_EQ(a.index(), b.index());
  EXPECT_EQ(s.NumRegistered(), 1u);
  // Handle and string paths hit the same slot.
  s.Add(a, 2.0);
  s.Add("hmc.reads", 3.0);
  EXPECT_DOUBLE_EQ(s.Get(b), 5.0);
  // A distinct name gets a distinct slot.
  EXPECT_NE(s.Intern("hmc.writes").index(), a.index());
  EXPECT_EQ(s.NumRegistered(), 2u);
}

TEST(Stats, RegisteredButUntouchedIsInvisible) {
  // Interning alone must not create output keys: the compat views list
  // only counters that were actually touched, matching the old
  // create-on-first-use StatSet semantics byte for byte.
  StatRegistry s;
  const StatId quiet = s.Intern("never.touched");
  s.Inc("a");
  EXPECT_EQ(s.Items().size(), 1u);
  EXPECT_FALSE(s.Has("never.touched"));
  s.Add(quiet, 0.0);  // touching with zero makes it visible
  EXPECT_TRUE(s.Has("never.touched"));
  EXPECT_EQ(s.Items().size(), 2u);
}

TEST(Stats, Merge) {
  StatRegistry a;
  StatRegistry b;
  a.Add("x", 1);
  b.Add("x", 2);
  b.Add("y", 3);
  a.Merge(b);
  EXPECT_DOUBLE_EQ(a.Get("x"), 3);
  EXPECT_DOUBLE_EQ(a.Get("y"), 3);
}

TEST(Stats, MergeSkipsUntouched) {
  StatRegistry a;
  StatRegistry b;
  b.Intern("ghost");  // registered in b, never touched
  b.Inc("real");
  a.Merge(b);
  EXPECT_FALSE(a.Has("ghost"));
  EXPECT_TRUE(a.Has("real"));
}

TEST(Stats, ItemsSorted) {
  StatRegistry s;
  s.Inc("b");
  s.Inc("a");
  auto items = s.Items();
  ASSERT_EQ(items.size(), 2u);
  EXPECT_EQ(items[0].first, "a");
}

TEST(Stats, ItemsHidesCoreScopeAllItemsKeepsIt) {
  StatRegistry s;
  s.Inc("core.insts");
  s.Inc("hmc.reads");
  auto compat = s.Items();
  ASSERT_EQ(compat.size(), 1u);
  EXPECT_EQ(compat[0].first, "hmc.reads");
  auto all = s.AllItems();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].first, "core.insts");
}

TEST(Stats, ScopePrefixesAndForwards) {
  StatRegistry reg;
  StatScope scope(&reg, "hmc");
  const StatId reads = scope.Counter("reads");
  scope.Inc(reads);
  scope.Add(reads, 2.0);
  EXPECT_DOUBLE_EQ(reg.Get("hmc.reads"), 3.0);
  StatScope sub = scope.Sub("vault0");
  sub.Inc(sub.Counter("row_hits"));
  EXPECT_DOUBLE_EQ(reg.Get("hmc.vault0.row_hits"), 1.0);
}

TEST(Stats, DetachedScopeIsInertNoOp) {
  // A null-registry scope stands in for the old `if (stats_ != nullptr)`
  // guards: every operation must be a safe no-op.
  StatScope scope(nullptr, "hmc");
  EXPECT_FALSE(scope.attached());
  const StatId id = scope.Counter("reads");
  EXPECT_FALSE(id.valid());
  scope.Inc(id);
  scope.Add(id, 5.0);
  scope.Set(id, 7.0);  // must not crash
}

TEST(Stats, SnapshotDeltaTracksChangesOnly) {
  StatRegistry s;
  s.Add("a", 1.0);
  s.Add("b", 2.0);
  StatSnapshot before = s.Snapshot();
  s.Add("b", 3.0);
  s.Inc("c");
  StatSnapshot after = s.Snapshot();
  auto deltas = DeltaItems(after, before);
  ASSERT_EQ(deltas.size(), 2u);
  EXPECT_EQ(deltas[0].first, "b");
  EXPECT_DOUBLE_EQ(deltas[0].second, 3.0);
  EXPECT_EQ(deltas[1].first, "c");
  EXPECT_DOUBLE_EQ(deltas[1].second, 1.0);
  // Delta against the default-constructed snapshot is the full state.
  EXPECT_EQ(DeltaItems(after, StatSnapshot()).size(), 3u);
}

TEST(Stats, ResetClearsValuesKeepsNames) {
  StatRegistry s;
  const StatId x = s.Intern("x");
  s.Add(x, 5.0);
  s.Reset();
  EXPECT_DOUBLE_EQ(s.Get(x), 0.0);
  EXPECT_FALSE(s.Has("x"));          // untouched again
  EXPECT_EQ(s.NumRegistered(), 1u);  // handle stays valid
  s.Inc(x);
  EXPECT_DOUBLE_EQ(s.Get("x"), 1.0);
}

TEST(Histogram, BucketsAndOverflow) {
  Histogram h(10.0, 4);
  h.Record(5);
  h.Record(15);
  h.Record(35);
  h.Record(1000);  // overflow
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.counts()[0], 1u);
  EXPECT_EQ(h.counts()[1], 1u);
  EXPECT_EQ(h.counts()[3], 1u);
  EXPECT_EQ(h.counts()[4], 1u);
  EXPECT_DOUBLE_EQ(h.max(), 1000.0);
  EXPECT_NEAR(h.mean(), (5 + 15 + 35 + 1000) / 4.0, 1e-9);
}

TEST(Histogram, NegativeValuesClampToFirstBucket) {
  // Regression: Record(-1) used to cast the negative quotient straight to
  // std::size_t, wrapping to a huge index and landing in the overflow
  // bucket (or worse). Negatives must clamp into bucket [0, w).
  Histogram h(10.0, 4);
  h.Record(-1.0);
  h.Record(-1e9);
  h.Record(5.0);
  EXPECT_EQ(h.total(), 3u);
  EXPECT_EQ(h.counts()[0], 3u);
  EXPECT_EQ(h.counts()[4], 0u);  // nothing leaked into overflow
  EXPECT_DOUBLE_EQ(h.max(), 5.0);
}

TEST(Histogram, MeanMatchesLowercaseAccessor) {
  Histogram h(1.0, 8);
  h.Record(2.0);
  h.Record(4.0);
  EXPECT_DOUBLE_EQ(h.Mean(), h.mean());
  EXPECT_DOUBLE_EQ(h.Mean(), 3.0);
}

TEST(Histogram, PercentileEmptyIsZero) {
  Histogram h(1.0, 4);
  EXPECT_DOUBLE_EQ(h.Percentile(50), 0.0);
}

TEST(Histogram, PercentileUniform) {
  // 100 values 0..99 into [0,10) buckets: each bucket holds 10 samples.
  Histogram h(10.0, 10);
  for (int i = 0; i < 100; ++i) h.Record(i);
  EXPECT_NEAR(h.Percentile(50), 50.0, 1e-9);
  EXPECT_NEAR(h.Percentile(95), 95.0, 1e-9);
  EXPECT_NEAR(h.Percentile(10), 10.0, 1e-9);
  // p=0 resolves to the start of the first populated bucket.
  EXPECT_NEAR(h.Percentile(0), 0.0, 1e-9);
  // p=100 lands at the top of the last populated bucket.
  EXPECT_NEAR(h.Percentile(100), 100.0, 1e-9);
}

TEST(Histogram, QuantileIsTheGeneralForm) {
  // Percentile(p) is defined as Quantile(p/100); serving SLOs call
  // Quantile directly with q in [0, 1].
  Histogram h(10.0, 10);
  for (int i = 0; i < 100; ++i) h.Record(i);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), h.Percentile(50));
  EXPECT_DOUBLE_EQ(h.Quantile(0.95), h.Percentile(95));
  EXPECT_DOUBLE_EQ(h.Quantile(0.99), h.Percentile(99));
  EXPECT_NEAR(h.Quantile(0.99), 99.0, 1e-9);
  // Out-of-range q clamps like out-of-range p always has.
  EXPECT_DOUBLE_EQ(h.Quantile(-1.0), h.Quantile(0.0));
  EXPECT_DOUBLE_EQ(h.Quantile(2.0), h.Quantile(1.0));
  Histogram empty(1.0, 4);
  EXPECT_DOUBLE_EQ(empty.Quantile(0.99), 0.0);
}

TEST(Histogram, PercentileSkipsEmptyBucketsAndClampsOverflow) {
  Histogram h(10.0, 4);  // buckets [0,10) [10,20) [20,30) [30,40) + overflow
  h.Record(5);
  h.Record(35);
  h.Record(500);  // overflow
  // Rank 1 of 3 sits in the first bucket.
  EXPECT_NEAR(h.Percentile(30), (0.0 + 0.9) * 10.0, 1e-9);
  // Ranks in the overflow bucket report the recorded max.
  EXPECT_DOUBLE_EQ(h.Percentile(100), 500.0);
  // Out-of-range p is clamped rather than UB.
  EXPECT_DOUBLE_EQ(h.Percentile(150), 500.0);
  EXPECT_GE(h.Percentile(-5), 0.0);
}

}  // namespace
}  // namespace graphpim
