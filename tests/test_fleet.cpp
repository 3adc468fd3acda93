// Tests for the fleet subsystem: seeded device-population determinism,
// quantized-corner boundedness, cohort-id parsing, the fixed-capacity
// streaming aggregator, and the end-to-end contract that a sharded fleet
// sweep aggregates bitwise-identically serial vs N-thread.
#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/domain.h"
#include "core/experiment.h"
#include "core/oracle.h"
#include "fleet/aggregator.h"
#include "fleet/device_population.h"

namespace oal::fleet {
namespace {

using core::AnyResult;
using core::Metrics;

PopulationConfig small_config(std::size_t devices) {
  PopulationConfig cfg;
  cfg.devices = devices;
  cfg.snippets_per_device = 8;
  return cfg;
}

/// A synthetic per-device result in the fleet id scheme, carrying exactly
/// the metrics the aggregator reads.
AnyResult device_result(const std::string& id, double snippets, double clamped,
                        double energy_ratio, double peak_skin_c) {
  return AnyResult(id, 0,
                   Metrics{{"snippets", snippets},
                           {"clamped_snippets", clamped},
                           {"energy_ratio", energy_ratio},
                           {"peak_skin_c", peak_skin_c}});
}

TEST(DevicePopulation, SpecIsDeterministicAndOrderIndependent) {
  const PopulationConfig cfg = small_config(24);
  const DevicePopulation a(cfg);
  const DevicePopulation b(cfg);
  // Query b backwards and a forwards: spec(i) is a pure function of
  // (config, index), so generation order must not matter.
  std::vector<DeviceSpec> reversed(cfg.devices);
  for (std::size_t i = cfg.devices; i-- > 0;) reversed[i] = b.spec(i);
  for (std::size_t i = 0; i < cfg.devices; ++i) {
    const DeviceSpec sa = a.spec(i);
    const DeviceSpec& sb = reversed[i];
    EXPECT_EQ(sa.id, sb.id);
    EXPECT_EQ(sa.cohort, sb.cohort);
    EXPECT_EQ(sa.corner, sb.corner);
    EXPECT_EQ(sa.vbin, sb.vbin);
    EXPECT_EQ(sa.ambient_c, sb.ambient_c);  // bitwise: same Rng stream
    EXPECT_EQ(sa.platform.leak_big_w_per_v, sb.platform.leak_big_w_per_v);
    EXPECT_EQ(sa.platform.v_max_big, sb.platform.v_max_big);
    ASSERT_EQ(sa.trace.size(), sb.trace.size());
    EXPECT_EQ(sa.trace.size(), cfg.snippets_per_device);
    for (std::size_t k = 0; k < sa.trace.size(); ++k)
      EXPECT_EQ(sa.trace[k].l2_mpki, sb.trace[k].l2_mpki);
  }
  // A different master seed moves every downstream draw.
  PopulationConfig other = cfg;
  other.seed = cfg.seed + 1;
  EXPECT_NE(DevicePopulation(other).spec(0).ambient_c, a.spec(0).ambient_c);
}

TEST(DevicePopulation, QuantizedCornersKeepThePlatformSetBounded) {
  const DevicePopulation pop(small_config(160));
  std::set<std::pair<double, double>> fingerprints;
  std::set<std::string> cohorts;
  for (std::size_t i = 0; i < pop.size(); ++i) {
    const DeviceSpec d = pop.spec(i);
    fingerprints.insert({d.platform.leak_big_w_per_v, d.platform.v_max_big});
    cohorts.insert(d.cohort);
    EXPECT_LT(d.corner, 3u);  // slow, typ, fast
    EXPECT_LT(d.vbin, 3u);    // vlow, vnom, vhigh
    EXPECT_GE(d.ambient_c, 5.0);
    EXPECT_LE(d.ambient_c, 42.0);
  }
  // 3 corners x 3 voltage bins: at most 9 distinct platforms — that is the
  // whole point (the fleet shares per-corner Oracle searches).  With 160
  // devices the typ-heavy draw still populates several corners and cohorts.
  EXPECT_LE(fingerprints.size(), 9u);
  EXPECT_GE(fingerprints.size(), 5u);
  EXPECT_GE(cohorts.size(), 6u);
}

TEST(DevicePopulation, CohortOfIdRoundTripsAndRejects) {
  const DevicePopulation pop(small_config(12));
  for (std::size_t i = 0; i < pop.size(); ++i) {
    const DeviceSpec d = pop.spec(i);
    EXPECT_EQ(DevicePopulation::cohort_of_id(d.id), d.cohort);
  }
  EXPECT_EQ(DevicePopulation::cohort_of_id("fleet/typ/vnom/hot/d00042"), "typ/vnom/hot");
  EXPECT_THROW(DevicePopulation::cohort_of_id("fig2/arm"), std::invalid_argument);
  EXPECT_THROW(DevicePopulation::cohort_of_id("fleet/"), std::invalid_argument);
  EXPECT_THROW(DevicePopulation::cohort_of_id(""), std::invalid_argument);
}

TEST(DevicePopulation, ConfigIsValidated) {
  PopulationConfig cfg;
  cfg.devices = 0;
  EXPECT_THROW(DevicePopulation{cfg}, std::invalid_argument);
  cfg = PopulationConfig{};
  cfg.snippets_per_device = 0;
  EXPECT_THROW(DevicePopulation{cfg}, std::invalid_argument);
  cfg = PopulationConfig{};
  cfg.snippets_per_device = cfg.canonical_snippets_per_app + 1;
  EXPECT_THROW(DevicePopulation{cfg}, std::invalid_argument);
  EXPECT_THROW(DevicePopulation(small_config(3)).spec(3), std::out_of_range);
}

TEST(DevicePopulation, GeneratorYieldsWholeFleetInIndexOrderAndOutlivesIt) {
  core::ExperimentEngine::AnyGenerator gen;
  std::vector<std::string> expect;
  {
    const DevicePopulation pop(small_config(10));
    for (std::size_t i = 0; i < pop.size(); ++i) expect.push_back(pop.spec(i).id);
    gen = pop.generator();
  }  // the generator holds its own copy; the population may go away
  std::vector<std::string> got;
  while (auto s = gen()) got.push_back(s->id());
  EXPECT_EQ(got, expect);
  EXPECT_FALSE(gen().has_value());  // exhausted stays exhausted
}

TEST(StreamingMetric, ExactStatsAndRingWindow) {
  StreamingMetric m(4);
  for (const double x : {5.0, 1.0, 9.0, 3.0}) m.add(x);
  EXPECT_EQ(m.stats().count(), 4u);
  EXPECT_EQ(m.stats().min(), 1.0);
  EXPECT_EQ(m.stats().max(), 9.0);
  EXPECT_DOUBLE_EQ(m.stats().mean(), 4.5);
  EXPECT_EQ(m.window(), 4u);
  EXPECT_DOUBLE_EQ(m.percentile(50.0), 4.0);  // (3 + 5) / 2

  // Past capacity the ring keeps the most recent 4 for percentiles while the
  // exact accumulators keep seeing everything.
  m.add(100.0);
  m.add(101.0);
  EXPECT_EQ(m.stats().count(), 6u);
  EXPECT_EQ(m.stats().max(), 101.0);
  EXPECT_EQ(m.window(), 4u);
  EXPECT_EQ(m.percentile(100.0), 101.0);
  EXPECT_EQ(m.percentile(0.0), 3.0);  // 5.0 and 1.0 have been evicted
  EXPECT_THROW(StreamingMetric{0}, std::invalid_argument);
  EXPECT_THROW(StreamingMetric{2}.percentile(50.0), std::invalid_argument);
}

TEST(PopulationAggregator, ExactCountsCohortsAndWorstN) {
  PopulationAggregator agg(/*t_max_skin_c=*/43.0, /*worst_n=*/3);
  agg.add(device_result("fleet/typ/vnom/hot/d00000", 10, 4, 2.0, 44.5));   // violation
  agg.add(device_result("fleet/typ/vnom/hot/d00001", 10, 0, 1.5, 40.0));
  agg.add(device_result("fleet/slow/vlow/cool/d00002", 20, 0, 3.0, 20.0));
  agg.add(device_result("fleet/slow/vlow/cool/d00003", 20, 10, 3.0, 21.0));  // ties d2 on ratio
  agg.add(device_result("fleet/fast/vhigh/hot/d00004", 10, 10, 1.2, 43.0));  // == limit: no viol

  const CohortStats& pop = agg.population();
  EXPECT_EQ(agg.devices(), 5u);
  EXPECT_EQ(pop.devices, 5u);
  EXPECT_EQ(pop.snippets, 70u);
  EXPECT_EQ(pop.clamped, 24u);
  EXPECT_EQ(pop.skin_violations, 1u);
  EXPECT_DOUBLE_EQ(pop.energy_ratio.stats().mean(), (2.0 + 1.5 + 3.0 + 3.0 + 1.2) / 5.0);
  EXPECT_DOUBLE_EQ(pop.clamp_rate.stats().max(), 1.0);

  ASSERT_EQ(agg.cohorts().size(), 3u);
  const CohortStats& hot = agg.cohorts().at("typ/vnom/hot");
  EXPECT_EQ(hot.devices, 2u);
  EXPECT_EQ(hot.snippets, 20u);
  EXPECT_EQ(hot.clamped, 4u);
  EXPECT_EQ(hot.skin_violations, 1u);
  EXPECT_EQ(agg.cohorts().at("slow/vlow/cool").devices, 2u);

  // Worst-3 by energy ratio, id as the tie-break, truncated at N.
  ASSERT_EQ(agg.worst().size(), 3u);
  EXPECT_EQ(agg.worst()[0].id, "fleet/slow/vlow/cool/d00002");
  EXPECT_EQ(agg.worst()[1].id, "fleet/slow/vlow/cool/d00003");
  EXPECT_EQ(agg.worst()[2].id, "fleet/typ/vnom/hot/d00000");

  // Non-fleet ids are a caller bug, not silently mis-bucketed.
  EXPECT_THROW(agg.add(device_result("gov/0", 1, 0, 1.0, 20.0)), std::invalid_argument);
}

/// Everything the fleet bench reports, flattened for bitwise comparison.
std::vector<std::pair<std::string, double>> flatten(const PopulationAggregator& agg) {
  std::vector<std::pair<std::string, double>> out;
  const auto fold = [&out](const std::string& key, const CohortStats& c) {
    out.emplace_back(key + "/devices", static_cast<double>(c.devices));
    out.emplace_back(key + "/snippets", static_cast<double>(c.snippets));
    out.emplace_back(key + "/clamped", static_cast<double>(c.clamped));
    out.emplace_back(key + "/violations", static_cast<double>(c.skin_violations));
    out.emplace_back(key + "/er_mean", c.energy_ratio.stats().mean());
    out.emplace_back(key + "/er_p50", c.energy_ratio.percentile(50.0));
    out.emplace_back(key + "/er_p99", c.energy_ratio.percentile(99.0));
    out.emplace_back(key + "/cr_mean", c.clamp_rate.stats().mean());
    out.emplace_back(key + "/skin_p99", c.peak_skin_c.percentile(99.0));
  };
  fold("population", agg.population());
  for (const auto& [cohort, stats] : agg.cohorts()) fold(cohort, stats);
  for (const TailDevice& d : agg.worst()) {
    out.emplace_back("worst/" + d.id, d.energy_ratio);
    out.emplace_back("worst-skin/" + d.id, d.peak_skin_c);
  }
  return out;
}

TEST(Fleet, ShardedSweepAggregatesIdenticallySerialVsParallel) {
  // The full contract behind the fleet bench: stream the same population
  // through run_any_streaming with 1 worker and with 4, same shard size,
  // and the aggregate — Welford means, windowed percentiles, worst-N table,
  // every exact counter — must be BITWISE identical, because per-shard
  // delivery order is a pure function of the shard's ids.
  const auto sweep = [](std::size_t threads) {
    core::ExperimentEngine engine(core::ExperimentOptions{threads});
    auto cache = std::make_shared<core::OracleCache>(nullptr, &engine.pool());
    const DevicePopulation pop(small_config(10), cache);
    PopulationAggregator agg(pop.config().t_max_skin_c, /*worst_n=*/5);
    const std::size_t ran = engine.run_any_streaming(
        pop.generator(), [&](AnyResult&& r) { agg.add(r); }, core::StreamOptions{4});
    EXPECT_EQ(ran, pop.size());
    return flatten(agg);
  };
  const auto serial = sweep(1);
  const auto parallel = sweep(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].first, parallel[i].first);
    EXPECT_EQ(serial[i].second, parallel[i].second) << serial[i].first;
  }
  // Sanity on the content: 10 devices ran under binding-able thermal limits.
  const auto devices = serial.front();
  EXPECT_EQ(devices.first, "population/devices");
  EXPECT_EQ(devices.second, 10.0);
}

}  // namespace
}  // namespace oal::fleet
