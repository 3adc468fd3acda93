// Tests for the SoC configuration space (4940 configurations, neighborhoods).
#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "soc/config_space.h"

namespace oal::soc {
namespace {

TEST(ConfigSpace, SizeMatchesPaper) {
  ConfigSpace space;
  // 4 little-core counts x 5 big-core counts x 13 little freqs x 19 big freqs
  // = the 4940 configurations the paper quotes for the Exynos 5422.
  EXPECT_EQ(space.size(), 4940u);
  EXPECT_EQ(space.little_freqs().size(), 13u);
  EXPECT_EQ(space.big_freqs().size(), 19u);
  EXPECT_DOUBLE_EQ(space.little_freqs().front(), 200.0);
  EXPECT_DOUBLE_EQ(space.little_freqs().back(), 1400.0);
  EXPECT_DOUBLE_EQ(space.big_freqs().back(), 2000.0);
}

TEST(ConfigSpace, EnumerateIsExhaustiveAndUnique) {
  ConfigSpace space;
  const auto all = space.enumerate();
  ASSERT_EQ(all.size(), 4940u);
  std::set<std::tuple<int, int, int, int>> seen;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const SocConfig& c = all[i];
    EXPECT_TRUE(space.valid(c));
    EXPECT_EQ(c, space.config_at(i));
    seen.insert({c.num_little, c.num_big, c.little_freq_idx, c.big_freq_idx});
  }
  EXPECT_EQ(seen.size(), 4940u);
}

TEST(ConfigSpace, ValidityChecks) {
  ConfigSpace space;
  EXPECT_TRUE(space.valid({1, 0, 0, 0}));
  EXPECT_FALSE(space.valid({0, 0, 0, 0}));   // at least one little core
  EXPECT_FALSE(space.valid({5, 0, 0, 0}));
  EXPECT_FALSE(space.valid({1, 5, 0, 0}));
  EXPECT_FALSE(space.valid({1, 0, 13, 0}));
  EXPECT_FALSE(space.valid({1, 0, 0, 19}));
  EXPECT_FALSE(space.valid({1, 0, -1, 0}));
}

TEST(ConfigSpace, ConfigAtOutOfRangeThrows) {
  ConfigSpace space;
  EXPECT_THROW(space.config_at(4940), std::out_of_range);
}

TEST(ConfigSpace, NeighborhoodRadiusOne) {
  ConfigSpace space;
  const SocConfig c{2, 2, 6, 9};
  const auto n = space.neighborhood(c, 1, 4);
  // Interior config: 3^4 = 81 candidates including itself.
  EXPECT_EQ(n.size(), 81u);
  for (const auto& x : n) {
    EXPECT_TRUE(space.valid(x));
    EXPECT_LE(std::abs(x.num_little - c.num_little), 1);
    EXPECT_LE(std::abs(x.num_big - c.num_big), 1);
    EXPECT_LE(std::abs(x.little_freq_idx - c.little_freq_idx), 1);
    EXPECT_LE(std::abs(x.big_freq_idx - c.big_freq_idx), 1);
  }
}

TEST(ConfigSpace, NeighborhoodClampedAtBoundary) {
  ConfigSpace space;
  const SocConfig corner{1, 0, 0, 0};
  const auto n = space.neighborhood(corner, 1, 4);
  // Each knob has only 2 feasible values at the corner: 2^4 = 16.
  EXPECT_EQ(n.size(), 16u);
}

TEST(ConfigSpace, NeighborhoodMaxChangedKnobs) {
  ConfigSpace space;
  const SocConfig c{2, 2, 6, 9};
  const auto n1 = space.neighborhood(c, 1, 1);
  // Itself + 2 moves per knob * 4 knobs = 9.
  EXPECT_EQ(n1.size(), 9u);
  const auto n2 = space.neighborhood(c, 1, 2);
  // 1 + 8 + C(4,2)*4 = 33.
  EXPECT_EQ(n2.size(), 33u);
}

TEST(ConfigSpace, ClusterSweepsCoverBothClustersAndExclusiveRoles) {
  ConfigSpace space;
  const SocConfig c{2, 2, 6, 9};
  const auto s = space.cluster_sweeps(c);
  EXPECT_EQ(s.size(), 2u * (4u * 13u) + 2u * (5u * 19u));
  bool saw_big_off_fast = false, saw_little_max = false, saw_little_only = false,
       saw_big_only = false;
  for (const auto& x : s) {
    EXPECT_TRUE(space.valid(x));
    // Each sweep either keeps the other cluster fixed or parks it in its
    // idle role (big gated / one idle-speed little).
    const bool little_swept = x.num_big == c.num_big && x.big_freq_idx == c.big_freq_idx;
    const bool big_swept = x.num_little == c.num_little && x.little_freq_idx == c.little_freq_idx;
    const bool little_only = x.num_big == 0 && x.big_freq_idx == 0;
    const bool big_only = x.num_little == 1 && x.little_freq_idx == 0;
    EXPECT_TRUE(little_swept || big_swept || little_only || big_only);
    saw_big_off_fast |= x.num_big == 0;
    saw_little_max |= x.num_little == 4 && x.little_freq_idx == 12;
    saw_little_only |= little_only && x.num_little == 3;
    saw_big_only |= big_only && x.num_big == 2;
  }
  EXPECT_TRUE(saw_big_off_fast);
  EXPECT_TRUE(saw_little_max);
  EXPECT_TRUE(saw_little_only);
  EXPECT_TRUE(saw_big_only);
}

TEST(ConfigSpace, KnobCardinalitiesMatchHeads) {
  ConfigSpace space;
  const auto k = space.knob_cardinalities();
  ASSERT_EQ(k.size(), 4u);
  EXPECT_EQ(k[0], 4u);
  EXPECT_EQ(k[1], 5u);
  EXPECT_EQ(k[2], 13u);
  EXPECT_EQ(k[3], 19u);
}

TEST(ConfigSpace, ToStringReadable) {
  const std::string s = ConfigSpace::to_string({2, 3, 0, 18});
  EXPECT_NE(s.find("L2@200MHz"), std::string::npos);
  EXPECT_NE(s.find("B3@2000MHz"), std::string::npos);
}

}  // namespace
}  // namespace oal::soc
