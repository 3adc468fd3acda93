// Tests for the JSONL results pipeline: writer escaping (round-tripped
// through the comparator's parser), record parsing, and the bench-regression
// comparator that tools/jsonl_compare wraps for CI.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

#include "core/jsonl_compare.h"
#include "core/results_io.h"

namespace oal::core {
namespace {

/// Self-cleaning temp path for writer tests.
struct TempFile {
  std::string path;
  explicit TempFile(const std::string& name) {
    path = std::string(::testing::TempDir()) + name;
  }
  ~TempFile() { std::remove(path.c_str()); }
  std::string contents() const {
    std::ifstream in(path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
  }
};

TEST(JsonlWriter, EscapesControlCharactersAndPreservesUtf8) {
  TempFile tmp("jsonl_escape.jsonl");
  // Control characters, JSON specials, and multi-byte UTF-8 (é = 0xC3 0xA9):
  // high-bit bytes must pass through raw, never sign-extend into \uFFFF...
  // escapes.
  const std::string id = std::string("fig\x01/caf\xc3\xa9/\"quoted\"\\back\n\ttab");
  {
    JsonlWriter writer(tmp.path);
    ASSERT_TRUE(writer.enabled());
    writer.write_metrics("bench\x1f", id, Metrics{{"energy_j", 1.25}});
  }
  const std::string line = tmp.contents();
  EXPECT_NE(line.find("\\u0001"), std::string::npos);
  EXPECT_NE(line.find("\\u001f"), std::string::npos);
  EXPECT_NE(line.find("caf\xc3\xa9"), std::string::npos);  // raw UTF-8 bytes
  EXPECT_NE(line.find("\\\"quoted\\\""), std::string::npos);
  EXPECT_NE(line.find("\\n"), std::string::npos);
  EXPECT_NE(line.find("\\t"), std::string::npos);
  EXPECT_EQ(line.find('\x01'), std::string::npos);  // no raw control bytes

  // Round-trip: parsing the written line recovers the exact original id.
  const JsonlRecord rec = parse_jsonl_record(line);
  EXPECT_EQ(rec.bench, "bench\x1f");
  EXPECT_EQ(rec.id, id);
  ASSERT_EQ(rec.metrics.size(), 1u);
  EXPECT_EQ(rec.metrics[0].first, "energy_j");
  EXPECT_DOUBLE_EQ(rec.metrics[0].second, 1.25);
}

TEST(JsonlWriter, NonFiniteMetricsSerializeAsNull) {
  TempFile tmp("jsonl_null.jsonl");
  {
    JsonlWriter writer(tmp.path);
    writer.write_metrics("b", "id", Metrics{{"nan_metric", std::nan("")}, {"ok", 2.0}});
  }
  const JsonlRecord rec = parse_jsonl_record(tmp.contents());
  ASSERT_EQ(rec.null_metrics.size(), 1u);
  EXPECT_EQ(rec.null_metrics[0], "nan_metric");
  ASSERT_EQ(rec.metrics.size(), 1u);
  EXPECT_DOUBLE_EQ(rec.metrics[0].second, 2.0);
}

TEST(JsonlWriter, EmptyPathDisablesWrites) {
  JsonlWriter writer("");
  EXPECT_FALSE(writer.enabled());
  writer.write_metrics("b", "id", {});  // must not crash
}

TEST(JsonlWriter, SequentialWritersAppendByDefault) {
  // Two benches pointed at one --json path must both land in the file: the
  // advertised append-per-call contract holds across writer instances (the
  // old std::ios::trunc default silently dropped the first bench's records).
  TempFile tmp("jsonl_append.jsonl");
  {
    JsonlWriter first(tmp.path);
    first.write_metrics("bench_a", "a/0", Metrics{{"m", 1.0}});
  }
  {
    JsonlWriter second(tmp.path);
    second.write_metrics("bench_b", "b/0", Metrics{{"m", 2.0}});
  }
  std::istringstream in(tmp.contents());
  const auto recs = read_jsonl(in);
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_EQ(recs[0].bench, "bench_a");
  EXPECT_EQ(recs[1].bench, "bench_b");
  EXPECT_DOUBLE_EQ(recs[1].metrics[0].second, 2.0);
}

TEST(JsonlWriter, TruncateModeStartsOver) {
  // Baseline refreshes want a clean slate; Mode::kTruncate restores it.
  TempFile tmp("jsonl_trunc.jsonl");
  {
    JsonlWriter stale(tmp.path);
    stale.write_metrics("old", "old/0", Metrics{{"m", 1.0}});
  }
  {
    JsonlWriter fresh(tmp.path, JsonlWriter::Mode::kTruncate);
    fresh.write_metrics("new", "new/0", Metrics{{"m", 3.0}});
  }
  std::istringstream in(tmp.contents());
  const auto recs = read_jsonl(in);
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].bench, "new");
}

TEST(JsonlParser, RejectsMalformedLines) {
  EXPECT_THROW(parse_jsonl_record("not json"), std::invalid_argument);
  EXPECT_THROW(parse_jsonl_record("{\"bench\":\"b\""), std::invalid_argument);
  EXPECT_THROW(parse_jsonl_record("{\"bench\":\"b\"} trailing"), std::invalid_argument);
  EXPECT_THROW(parse_jsonl_record("{\"unknown\":1}"), std::invalid_argument);
  EXPECT_THROW(parse_jsonl_record("{\"id\":\"\\udead\"}"), std::invalid_argument);
  // strtod would happily parse these; JSON (and the gate's math) cannot.
  EXPECT_THROW(parse_jsonl_record("{\"metrics\":{\"m\":inf}}"), std::invalid_argument);
  EXPECT_THROW(parse_jsonl_record("{\"metrics\":{\"m\":nan}}"), std::invalid_argument);
  EXPECT_THROW(parse_jsonl_record("{\"metrics\":{\"m\":0x1f}}"), std::invalid_argument);
  EXPECT_THROW(parse_jsonl_record("{\"metrics\":{\"m\":+1}}"), std::invalid_argument);
  EXPECT_THROW(parse_jsonl_record("{\"metrics\":{\"m\":.5}}"), std::invalid_argument);
  EXPECT_THROW(parse_jsonl_record("{\"metrics\":{\"m\":1e999}}"), std::invalid_argument);
  // Negative and exponent forms the writer does emit still parse.
  const auto ok = parse_jsonl_record("{\"metrics\":{\"m\":-1.25e-3}}");
  EXPECT_DOUBLE_EQ(ok.metrics[0].second, -1.25e-3);
}

TEST(JsonlParser, ReadsMultipleRecordsSkippingBlankLines) {
  std::istringstream in(
      "{\"bench\":\"b\",\"id\":\"x\",\"metrics\":{\"m\":1}}\n"
      "\n"
      "   \n"
      "{\"bench\":\"b\",\"id\":\"y\",\"metrics\":{}}\n");
  const auto recs = read_jsonl(in);
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_EQ(recs[0].id, "x");
  EXPECT_TRUE(recs[1].metrics.empty());
}

JsonlRecord make_record(const std::string& id, double value) {
  JsonlRecord r;
  r.bench = "bench";
  r.id = id;
  r.metrics.emplace_back("metric", value);
  return r;
}

TEST(JsonlCompare, IdenticalRunsPass) {
  const std::vector<JsonlRecord> run{make_record("a", 1.0), make_record("b", 2.0)};
  const auto res = compare_jsonl(run, run);
  EXPECT_TRUE(res.ok());
  EXPECT_EQ(res.records_compared, 2u);
  EXPECT_EQ(res.metrics_compared, 2u);
}

TEST(JsonlCompare, DriftBeyondToleranceFails) {
  const std::vector<JsonlRecord> base{make_record("a", 100.0)};
  JsonlCompareOptions opts;
  opts.rel_tol = 0.02;
  // 1% drift: within tolerance.
  EXPECT_TRUE(compare_jsonl(base, {make_record("a", 101.0)}, opts).ok());
  // 5% drift in either direction: flagged.
  EXPECT_FALSE(compare_jsonl(base, {make_record("a", 105.0)}, opts).ok());
  EXPECT_FALSE(compare_jsonl(base, {make_record("a", 95.0)}, opts).ok());
}

TEST(JsonlCompare, AbsoluteToleranceGovernsNearZeroMetrics) {
  const std::vector<JsonlRecord> base{make_record("a", 0.0)};
  JsonlCompareOptions opts;
  opts.rel_tol = 0.02;
  opts.abs_tol = 1e-6;
  EXPECT_TRUE(compare_jsonl(base, {make_record("a", 5e-7)}, opts).ok());
  EXPECT_FALSE(compare_jsonl(base, {make_record("a", 1e-3)}, opts).ok());
}

TEST(JsonlCompare, NonFiniteOrNegativeTolerancesAreRejected) {
  // tol = max(abs, rel*|b|): a NaN tolerance makes every `diff > tol`
  // false, so a 10x drift would pass.  Every global and per-metric
  // tolerance must be a finite number >= 0.
  const std::vector<JsonlRecord> base{make_record("a", 100.0)};
  const std::vector<JsonlRecord> drifted{make_record("a", 1000.0)};
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const auto rejected = [&](const JsonlCompareOptions& opts, const std::string& flag) {
    for (const auto* cur : {&base, &drifted}) {
      const auto res = compare_jsonl(base, *cur, opts);
      ASSERT_FALSE(res.ok()) << flag;
      EXPECT_NE(res.issues.front().find(flag), std::string::npos) << res.issues.front();
    }
  };
  for (const double bad : {nan, inf, -inf, -1e-9}) {
    SCOPED_TRACE(testing::Message() << "tolerance " << bad);
    JsonlCompareOptions opts;
    opts.abs_tol = bad;
    rejected(opts, "--abs-tol");
    opts = {};
    opts.rel_tol = bad;
    rejected(opts, "--rel-tol");
    opts = {};
    opts.abs_tol_for["metric"] = bad;
    rejected(opts, "--metric-abs-tol metric");
    opts = {};
    opts.rel_tol_for["metric"] = bad;
    rejected(opts, "--metric-rel-tol metric");
  }
  // Zero is a valid (exact) tolerance.
  JsonlCompareOptions exact;
  exact.rel_tol = 0.0;
  exact.abs_tol = 0.0;
  EXPECT_TRUE(compare_jsonl(base, base, exact).ok());
}

TEST(JsonlCompare, ExcludedMetricsAreNeverGated) {
  JsonlRecord base = make_record("a", 1.0);
  base.metrics.emplace_back("wall_time_s", 0.5);
  base.metrics.emplace_back("p50_ns", 800.0);
  JsonlRecord cur = base;
  cur.metrics[1].second = 0.9;  // wall clock moved
  cur.metrics[2].second = 900.0;
  JsonlCompareOptions opts;
  opts.rel_tol = 0.0;
  opts.abs_tol = 0.0;
  EXPECT_FALSE(compare_jsonl({base}, {cur}, opts).ok());
  opts.exclude = {"wall_time_s", "p*", "absent_metric"};  // absent: not an error
  auto res = compare_jsonl({base}, {cur}, opts);
  EXPECT_TRUE(res.ok());
  EXPECT_EQ(res.metrics_compared, 1u);
  // Exclusion wins over --metrics, and never hides drift in what is left.
  opts.metrics = {"metric", "wall_time_s"};
  cur.metrics[0].second = 1.5;
  res = compare_jsonl({base}, {cur}, opts);
  ASSERT_EQ(res.issues.size(), 1u);
  EXPECT_NE(res.issues[0].find("metric drifted"), std::string::npos);
}

TEST(JsonlCompare, MissingRecordsAndMetricsAreFailures) {
  const std::vector<JsonlRecord> base{make_record("a", 1.0), make_record("gone", 1.0)};
  {
    const auto res = compare_jsonl(base, {make_record("a", 1.0)});
    ASSERT_EQ(res.issues.size(), 1u);
    EXPECT_NE(res.issues[0].find("missing record"), std::string::npos);
  }
  {
    JsonlRecord renamed = make_record("a", 1.0);
    renamed.metrics[0].first = "other_metric";
    const auto res = compare_jsonl({make_record("a", 1.0)}, {renamed});
    ASSERT_EQ(res.issues.size(), 1u);
    EXPECT_NE(res.issues[0].find("missing from current"), std::string::npos);
  }
}

TEST(JsonlCompare, ExtraCurrentRecordsAreNotFailures) {
  // New scenarios appear as the repo grows; only baseline coverage is gated.
  const std::vector<JsonlRecord> base{make_record("a", 1.0)};
  const std::vector<JsonlRecord> cur{make_record("a", 1.0), make_record("new", 9.0)};
  const auto res = compare_jsonl(base, cur);
  EXPECT_TRUE(res.ok());
  EXPECT_EQ(res.records_only_in_current, 1u);
}

TEST(JsonlCompare, NullBaselineMetricsAreFailures) {
  // A null baseline metric would otherwise be silently excluded from every
  // future comparison — the gate must demand a fixed baseline instead.
  JsonlRecord base = make_record("a", 1.0);
  base.null_metrics.push_back("broken_metric");
  const auto res = compare_jsonl({base}, {make_record("a", 1.0)});
  ASSERT_FALSE(res.ok());
  EXPECT_NE(res.issues[0].find("broken_metric"), std::string::npos);
  EXPECT_NE(res.issues[0].find("ungatable"), std::string::npos);
}

TEST(JsonlCompare, DuplicateRecordsAreFailures) {
  // Last-wins lookup on duplicated (bench, id) could gate the wrong record;
  // duplicates in either file are an explicit error.
  const std::vector<JsonlRecord> dup{make_record("a", 1.0), make_record("a", 2.0)};
  const std::vector<JsonlRecord> clean{make_record("a", 1.0)};
  {
    const auto res = compare_jsonl(clean, dup);
    ASSERT_FALSE(res.ok());
    EXPECT_NE(res.issues[0].find("duplicate record in current"), std::string::npos);
  }
  {
    const auto res = compare_jsonl(dup, clean);
    ASSERT_FALSE(res.ok());
    EXPECT_NE(res.issues[0].find("duplicate record in baseline"), std::string::npos);
  }
}

JsonlRecord make_record2(const std::string& id, double a, double b) {
  JsonlRecord r;
  r.bench = "bench";
  r.id = id;
  r.metrics.emplace_back("stable_metric", a);
  r.metrics.emplace_back("chaotic_metric", b);
  return r;
}

TEST(JsonlCompare, MetricFilterGatesOnlySelectedMetrics) {
  const std::vector<JsonlRecord> base{make_record2("a", 100.0, 1.0)};
  const std::vector<JsonlRecord> cur{make_record2("a", 100.5, 50.0)};  // chaotic drifted 50x
  JsonlCompareOptions opts;
  opts.rel_tol = 0.02;
  opts.metrics = {"stable_metric"};
  const auto res = compare_jsonl(base, cur, opts);
  EXPECT_TRUE(res.ok());
  EXPECT_EQ(res.metrics_compared, 1u);
  // Without the filter the chaotic metric fails.
  opts.metrics.clear();
  EXPECT_FALSE(compare_jsonl(base, cur, opts).ok());
}

TEST(JsonlCompare, MetricFilterSupportsPrefixElements) {
  const std::vector<JsonlRecord> base{make_record2("a", 100.0, 1.0)};
  const std::vector<JsonlRecord> cur{make_record2("a", 100.0, 99.0)};
  JsonlCompareOptions opts;
  opts.metrics = {"stable_*"};
  EXPECT_TRUE(compare_jsonl(base, cur, opts).ok());
  opts.metrics = {"chaotic_*"};
  EXPECT_FALSE(compare_jsonl(base, cur, opts).ok());
}

TEST(JsonlCompare, UnknownFilterAndOverrideNamesAreErrors) {
  // A typo in --metrics or a tolerance override would otherwise silently
  // gate (or loosen) nothing.
  const std::vector<JsonlRecord> base{make_record2("a", 1.0, 2.0)};
  {
    JsonlCompareOptions opts;
    opts.metrics = {"stable_metric", "tpyo_metric"};
    const auto res = compare_jsonl(base, base, opts);
    ASSERT_FALSE(res.ok());
    EXPECT_NE(res.issues[0].find("tpyo_metric"), std::string::npos);
  }
  {
    JsonlCompareOptions opts;
    opts.metrics = {"nothing_*"};
    EXPECT_FALSE(compare_jsonl(base, base, opts).ok());
  }
  {
    JsonlCompareOptions opts;
    opts.rel_tol_for["tpyo_metric"] = 0.5;
    EXPECT_FALSE(compare_jsonl(base, base, opts).ok());
  }
  {
    // Overrides are exact-name lookups; a prefix-form key would silently
    // override nothing, so it is rejected too.
    JsonlCompareOptions opts;
    opts.rel_tol_for["stable_*"] = 0.5;
    EXPECT_FALSE(compare_jsonl(base, base, opts).ok());
  }
}

TEST(JsonlCompare, PerMetricToleranceOverrides) {
  const std::vector<JsonlRecord> base{make_record2("a", 100.0, 100.0)};
  const std::vector<JsonlRecord> cur{make_record2("a", 101.0, 110.0)};  // 1% and 10% drift
  JsonlCompareOptions opts;
  opts.rel_tol = 0.02;
  // Globally the chaotic metric fails at 10%...
  EXPECT_FALSE(compare_jsonl(base, cur, opts).ok());
  // ...a per-metric loosening admits it without widening the stable gate.
  opts.rel_tol_for["chaotic_metric"] = 0.2;
  EXPECT_TRUE(compare_jsonl(base, cur, opts).ok());
  // A per-metric tightening works the other way.
  opts.rel_tol_for["stable_metric"] = 1e-4;
  EXPECT_FALSE(compare_jsonl(base, cur, opts).ok());
  // Absolute overrides govern near-zero metrics independently.
  const std::vector<JsonlRecord> zbase{make_record2("z", 0.0, 0.0)};
  const std::vector<JsonlRecord> zcur{make_record2("z", 1e-4, 0.0)};
  JsonlCompareOptions zopts;
  EXPECT_FALSE(compare_jsonl(zbase, zcur, zopts).ok());
  zopts.abs_tol_for["stable_metric"] = 1e-3;
  EXPECT_TRUE(compare_jsonl(zbase, zcur, zopts).ok());
}

TEST(JsonlCompare, FilteredOutNullBaselineMetricsAreIgnored) {
  // The filter is how a bench with a known-broken metric gates the rest.
  JsonlRecord base = make_record("a", 1.0);
  base.null_metrics.push_back("broken_metric");
  JsonlCompareOptions opts;
  opts.metrics = {"metric"};
  EXPECT_TRUE(compare_jsonl({base}, {make_record("a", 1.0)}, opts).ok());
  // Selecting the null metric still fails loudly.
  opts.metrics = {"metric", "broken_metric"};
  EXPECT_FALSE(compare_jsonl({base}, {make_record("a", 1.0)}, opts).ok());
}

}  // namespace
}  // namespace oal::core
