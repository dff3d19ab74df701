// Failure-injection tests: invariant violations must terminate with a
// diagnostic, and user errors must throw SimError, rather than corrupt the
// simulation.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "common/config.h"
#include "common/log.h"
#include "graph/generator.h"
#include "graph/region.h"
#include "mem/cache.h"
#include "workloads/workload.h"

namespace graphpim {
namespace {

using DeathTest = ::testing::Test;

// Runs `fn`, which must throw SimError whose message contains `needle`.
template <typename Fn>
void ExpectSimError(Fn fn, const std::string& needle) {
  EXPECT_THROW(fn(), SimError);
  try {
    fn();
  } catch (const SimError& e) {
    EXPECT_NE(e.message().find(needle), std::string::npos) << e.message();
  }
}

TEST(ErrorPaths, CheckMacroAborts) {
  EXPECT_DEATH({ GP_CHECK(1 == 2, "impossible"); }, "check failed");
}

TEST(ErrorPaths, PanicAborts) {
  EXPECT_DEATH({ GP_PANIC("boom ", 42); }, "boom 42");
}

TEST(ErrorPaths, FatalExitsWithDiagnostic) {
  EXPECT_EXIT({ GP_FATAL("bad config"); }, ::testing::ExitedWithCode(1), "bad config");
}

// Bad CLI input is recoverable: the drivers catch SimError at main() and
// print one `error:` line instead of dying inside Config.
TEST(ErrorPaths, ConfigRejectsMalformedArg) {
  const char* argv[] = {"prog", "--no-equals-sign"};
  ExpectSimError([&] { Config::FromArgs(2, const_cast<char**>(argv)); },
                 "malformed argument");
}

TEST(ErrorPaths, ConfigRejectsNonNumeric) {
  Config cfg;
  cfg.Set("n", "abc");
  ExpectSimError([&] { cfg.GetInt("n", 0); }, "not an integer");
}

TEST(ErrorPaths, ConfigUintRejectsSignsOverflowAndExcess) {
  Config cfg;
  const std::uint64_t u32_max = 4294967295u;
  auto get = [&](const std::string& v, std::uint64_t max) {
    cfg.Set("n", v);
    return cfg.GetUint("n", 0, max);
  };
  // strtoull alone would wrap "-5" to 2^64-5 and skip the blank.
  for (const std::string v : {"-5", "+5", " 5", "5x", "", "0x"}) {
    ExpectSimError([&] { get(v, u32_max); },
                   "'" + v + "' is not an unsigned integer");
  }
  ExpectSimError([&] { get(std::string("20") + '\0' + "x", u32_max); },
                 "is not an unsigned integer");
  ExpectSimError([&] { get("4294967297", u32_max); },
                 "config key 'n': 4294967297 is above its maximum 4294967295");
  ExpectSimError([&] { get("99999999999999999999", ~std::uint64_t{0}); },
                 "is above its maximum");
  EXPECT_EQ(get("4294967295", u32_max), u32_max);
  EXPECT_EQ(get("0x10", u32_max), 16u);
  EXPECT_EQ(cfg.GetUint("absent", 7), 7u);
}

TEST(ErrorPaths, ConfigIntRejectsOverflowAndExcess) {
  Config cfg;
  auto get = [&](const std::string& v) {
    cfg.Set("jobs", v);
    return cfg.GetInt("jobs", 0);
  };
  // strtoll alone would clamp the first to INT64_MAX (then -1 as an int)
  // and the int cast would wrap the second to 1.
  ExpectSimError([&] { get("99999999999999999999"); },
                 "config key 'jobs': 99999999999999999999 is out of range");
  ExpectSimError([&] { get("4294967297"); },
                 "4294967297 is out of range [-2147483648, 2147483647]");
  for (const std::string v : {"+5", " 5", "5x", "", "-", "--5", "0x"}) {
    ExpectSimError([&] { get(v); }, "'" + v + "' is not an integer");
  }
  EXPECT_EQ(get("-7"), -7);
  EXPECT_EQ(get("2147483647"), 2147483647);
  EXPECT_EQ(get("0x10"), 16);
  cfg.Set("n", "-1");
  ExpectSimError([&] { cfg.GetInt("n", 0, 0, 8); },
                 "config key 'n': -1 is out of range [0, 8]");
}

TEST(ErrorPaths, ConfigDoubleRejectsTrailingTextBlanksAndNonFinite) {
  Config cfg;
  auto get = [&](const std::string& v) {
    cfg.Set("x", v);
    return cfg.GetDouble("x", 0.0);
  };
  // strtod alone reads "1e6abc" as 1e6 and "" as 0.
  for (const std::string v : {"", "1e6abc", " 5", "5 ", "abc", "1,5"}) {
    ExpectSimError([&] { get(v); },
                   "config key 'x': '" + v + "' is not a number");
  }
  ExpectSimError([&] { get(std::string("2") + '\0' + "x"); },
                 "is not a number");
  for (const std::string v : {"nan", "-nan", "inf", "-infinity", "1e999"}) {
    ExpectSimError([&] { get(v); }, "config key 'x': '" + v + "' is not finite");
  }
  EXPECT_DOUBLE_EQ(get("2.5"), 2.5);
  EXPECT_DOUBLE_EQ(get("-1e-3"), -1e-3);
  EXPECT_DOUBLE_EQ(ParseDouble("grid spec key 'k'", "7"), 7.0);
  ExpectSimError([] { ParseDouble("grid spec key 'k'", "7x"); },
                 "grid spec key 'k': '7x' is not a number");
}

TEST(ErrorPaths, RegionExhaustionIsFatal) {
  graph::Region r(0, 128);
  r.Allocate(100);
  EXPECT_DEATH({ r.Allocate(100); }, "region exhausted");
}

TEST(ErrorPaths, CacheRejectsBadGeometry) {
  EXPECT_DEATH({ mem::CacheArray c(1000, 3, 64); }, "");
  EXPECT_DEATH({ mem::CacheArray c(4096, 4, 48); }, "power of two");
}

TEST(ErrorPaths, CacheDoubleInsertIsBug) {
  mem::CacheArray c(4096, 4, 64);
  c.Insert(0x40, false);
  EXPECT_DEATH({ c.Insert(0x40, false); }, "already present");
}

// Bad workload/profile names are recoverable (SimError): a sweep isolates
// the failing cell instead of dying, and the CLI drivers catch at main().
TEST(ErrorPaths, UnknownWorkloadThrows) {
  EXPECT_THROW({ workloads::CreateWorkload("nope"); }, SimError);
  try {
    workloads::CreateWorkload("nope");
    FAIL() << "expected SimError";
  } catch (const SimError& e) {
    EXPECT_NE(std::string(e.what()).find("unknown workload"), std::string::npos);
  }
}

TEST(ErrorPaths, UnknownProfileThrows) {
  EXPECT_THROW({ graph::GenerateProfile("nope", 1024, 1); }, SimError);
}

TEST(ErrorPaths, ThrowMacroCarriesMessageAndLocation) {
  try {
    GP_THROW("bad knob '", "x", "' value ", 42);
    FAIL() << "expected SimError";
  } catch (const SimError& e) {
    EXPECT_EQ(e.message(), "bad knob 'x' value 42");
    // what() appends file:line for log/CLI display.
    EXPECT_NE(std::string(e.what()).find("test_errors.cc"), std::string::npos);
  }
}

TEST(ErrorPaths, ConfigRequireKeysAcceptsAndRejects) {
  Config cfg;
  cfg.Set("jobs", "4");
  cfg.Set("sede", "1");  // typo of "seed"
  EXPECT_NO_THROW(cfg.RequireKeys({"jobs", "seed", "sede"}));
  try {
    cfg.RequireKeys({"jobs", "seed"});
    FAIL() << "expected SimError";
  } catch (const SimError& e) {
    EXPECT_NE(e.message().find("sede"), std::string::npos);
    EXPECT_NE(e.message().find("seed"), std::string::npos);  // lists accepted
  }
}

TEST(ErrorPaths, UnknownLdbcNameIsFatal) {
  ExpectSimError([] { graph::LdbcSizeFromName("ldbc-9z"); }, "unknown LDBC dataset");
}

}  // namespace
}  // namespace graphpim
