// Tests for the shared bench CLI driver: flag parsing (exit 2 with usage on
// unknown arguments), --list, prefix selection through the registry, size
// options, --json wiring, and the subset-tolerant ResultIndex.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/driver.h"
#include "core/domain.h"
#include "core/experiment.h"
#include "core/jsonl_compare.h"
#include "core/scenario_registry.h"

namespace oal::bench {
namespace {

using core::AnyResult;
using core::AnyScenario;
using core::Metrics;
using core::ScenarioRegistry;

/// argv shim: parse() takes char** but never mutates the strings.
struct Args {
  explicit Args(std::vector<std::string> words) : storage(std::move(words)) {
    ptrs.push_back(const_cast<char*>("bench_test"));
    for (const std::string& w : storage) ptrs.push_back(const_cast<char*>(w.c_str()));
  }
  int argc() const { return static_cast<int>(ptrs.size()); }
  char** argv() { return ptrs.data(); }
  std::vector<std::string> storage;
  std::vector<char*> ptrs;
};

/// A tiny two-family catalog of pure closures.
ScenarioRegistry tiny_registry() {
  ScenarioRegistry reg;
  for (const char* name : {"fam/a", "fam/b", "other/c"}) {
    reg.add(name, [name] {
      return AnyScenario(name, [name] {
        return AnyResult(name, 0, Metrics{{"value", 1.0}});
      });
    });
  }
  return reg;
}

TEST(BenchDriver, DefaultsRunEverything) {
  BenchDriver driver("bench_test");
  Args args({});
  ASSERT_TRUE(driver.parse(args.argc(), args.argv()));
  EXPECT_FALSE(driver.listing());
  EXPECT_TRUE(driver.prefixes().empty());
  EXPECT_FALSE(driver.json().enabled());

  const auto batch = driver.select(tiny_registry());
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[0].id(), "fam/a");
  EXPECT_EQ(batch[2].id(), "other/c");
}

TEST(BenchDriver, UnknownFlagExitsTwoWithUsage) {
  BenchDriver driver("bench_test");
  Args args({"--bogus"});
  ::testing::internal::CaptureStderr();
  EXPECT_FALSE(driver.parse(args.argc(), args.argv()));
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(driver.exit_code(), 2);
  EXPECT_NE(err.find("unknown flag '--bogus'"), std::string::npos);
  EXPECT_NE(err.find("usage: bench_test"), std::string::npos);
}

TEST(BenchDriver, HelpExitsZero) {
  BenchDriver driver("bench_test");
  Args args({"--help"});
  ::testing::internal::CaptureStdout();
  EXPECT_FALSE(driver.parse(args.argc(), args.argv()));
  EXPECT_EQ(driver.exit_code(), 0);
  EXPECT_NE(::testing::internal::GetCapturedStdout().find("usage: bench_test"),
            std::string::npos);
}

TEST(BenchDriver, SizeOptionsParseAndValidate) {
  {
    BenchDriver driver("bench_test");
    std::size_t frames = 100;
    driver.add_size_option("--frames", &frames, "trace length");
    Args args({"--frames", "640"});
    ASSERT_TRUE(driver.parse(args.argc(), args.argv()));
    EXPECT_EQ(frames, 640u);
  }
  for (const char* bad : {"0", "-3", "abc", "12x"}) {
    BenchDriver driver("bench_test");
    std::size_t frames = 100;
    driver.add_size_option("--frames", &frames, "trace length");
    Args args({"--frames", bad});
    ::testing::internal::CaptureStderr();
    EXPECT_FALSE(driver.parse(args.argc(), args.argv())) << bad;
    (void)::testing::internal::GetCapturedStderr();
    EXPECT_EQ(driver.exit_code(), 2);
    EXPECT_EQ(frames, 100u);  // untouched on error
  }
  {
    BenchDriver driver("bench_test");
    std::size_t frames = 100;
    driver.add_size_option("--frames", &frames, "trace length");
    Args args({"--frames"});
    ::testing::internal::CaptureStderr();
    EXPECT_FALSE(driver.parse(args.argc(), args.argv()));
    (void)::testing::internal::GetCapturedStderr();
    EXPECT_EQ(driver.exit_code(), 2);
  }
}

TEST(BenchDriver, SizeOptionOverflowIsRejectedNotTruncated) {
  // strtoull silently saturates (sets ERANGE) on values past 2^64; a fleet
  // sweep invoked with --devices 99999999999999999999 must exit 2 with
  // usage, not run some wrapped/truncated population size.
  for (const char* huge : {"99999999999999999999", "18446744073709551616",
                           "340282366920938463463374607431768211456"}) {
    BenchDriver driver("bench_test");
    std::size_t devices = 200;
    driver.add_size_option("--devices", &devices, "population size");
    Args args({"--devices", huge});
    ::testing::internal::CaptureStderr();
    EXPECT_FALSE(driver.parse(args.argc(), args.argv())) << huge;
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(driver.exit_code(), 2) << huge;
    EXPECT_NE(err.find("out of range"), std::string::npos) << huge;
    EXPECT_NE(err.find("usage: bench_test"), std::string::npos) << huge;
    EXPECT_EQ(devices, 200u) << huge;  // untouched on error
  }
  // The exact maximum still parses (no off-by-one at the boundary).
  BenchDriver driver("bench_test");
  std::size_t devices = 200;
  driver.add_size_option("--devices", &devices, "population size");
  Args args({"--devices", "18446744073709551615"});
  ASSERT_TRUE(driver.parse(args.argc(), args.argv()));
  EXPECT_EQ(devices, 18446744073709551615ull);
}

TEST(BenchDriver, PrefixSelectionUnionIsDeduplicatedAndOrdered) {
  BenchDriver driver("bench_test");
  Args args({"other", "fam/a", "other/c"});
  ASSERT_TRUE(driver.parse(args.argc(), args.argv()));
  const auto batch = driver.select(tiny_registry());
  ASSERT_EQ(batch.size(), 2u);  // other/c selected twice, counted once
  EXPECT_EQ(batch[0].id(), "fam/a");
  EXPECT_EQ(batch[1].id(), "other/c");
}

TEST(BenchDriver, ListPrintsSelectedNames) {
  BenchDriver driver("bench_test");
  Args args({"--list", "fam"});
  ASSERT_TRUE(driver.parse(args.argc(), args.argv()));
  EXPECT_TRUE(driver.listing());
  ::testing::internal::CaptureStdout();
  EXPECT_EQ(driver.list(tiny_registry()), 0);
  EXPECT_EQ(::testing::internal::GetCapturedStdout(), "fam/a\nfam/b\n");
}

TEST(BenchDriver, ListWithUnknownPrefixFails) {
  BenchDriver driver("bench_test");
  Args args({"--list", "fam/a/deeper"});
  ASSERT_TRUE(driver.parse(args.argc(), args.argv()));
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(driver.list(tiny_registry()), 2);
  EXPECT_NE(::testing::internal::GetCapturedStderr().find("selects no arm"), std::string::npos);
}

TEST(BenchDriver, SelectWithUnknownPrefixExitsTwo) {
  EXPECT_EXIT(
      {
        BenchDriver driver("bench_test");
        Args args({"nope"});
        if (!driver.parse(args.argc(), args.argv())) std::exit(3);
        (void)driver.select(tiny_registry());
        std::exit(0);
      },
      ::testing::ExitedWithCode(2), "selects no arm");
}

TEST(BenchDriver, JsonFlagBindsAppendingWriter) {
  const std::string path = std::string(::testing::TempDir()) + "driver_json.jsonl";
  std::remove(path.c_str());
  for (int round = 0; round < 2; ++round) {
    BenchDriver driver("bench_test");
    Args args({"--json", path});
    ASSERT_TRUE(driver.parse(args.argc(), args.argv()));
    ASSERT_TRUE(driver.json().enabled());
    driver.json().write_metrics(driver.bench_name(), "arm/" + std::to_string(round),
                                Metrics{{"m", 1.0 + round}});
  }
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  std::istringstream text(ss.str());
  const auto recs = core::read_jsonl(text);
  ASSERT_EQ(recs.size(), 2u);  // both driver invocations' records survive
  EXPECT_EQ(recs[0].id, "arm/0");
  EXPECT_EQ(recs[1].id, "arm/1");
  std::remove(path.c_str());
}

TEST(BenchDriver, SelectedBatchRunsOnEngine) {
  BenchDriver driver("bench_test");
  Args args({"fam"});
  ASSERT_TRUE(driver.parse(args.argc(), args.argv()));
  core::ExperimentEngine engine(core::ExperimentOptions{2});
  const auto results = engine.run_any(driver.select(tiny_registry()));
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].id(), "fam/a");
  EXPECT_EQ(results[0].metric("value"), 1.0);
}

TEST(ResultIndex, FindsByIdAndToleratesSubsets) {
  std::vector<AnyResult> results;
  results.emplace_back("a/0", 0, Metrics{{"m", 1.0}});
  results.emplace_back("a/1", 0, Metrics{{"m", 2.0}});
  const ResultIndex index(results);
  ASSERT_NE(index.find("a/0"), nullptr);
  EXPECT_EQ(index.find("a/0")->metric("m"), 1.0);
  EXPECT_EQ(index.find("missing"), nullptr);
  EXPECT_TRUE(index.has("a/1"));
  EXPECT_TRUE(index.has_all({"a/0", "a/1"}));
  EXPECT_FALSE(index.has_all({"a/0", "missing"}));
}

}  // namespace
}  // namespace oal::bench
