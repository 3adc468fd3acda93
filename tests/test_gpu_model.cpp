// Tests for the integrated-GPU platform model.
#include <gtest/gtest.h>

#include "gpu/gpu_model.h"

namespace oal::gpu {
namespace {

FrameDescriptor medium_frame() {
  FrameDescriptor f;
  f.render_cycles = 20e6;
  f.mem_bytes = 12e6;
  f.cpu_cycles = 6e6;
  return f;
}

constexpr double kPeriod30 = 1.0 / 30.0;

TEST(GpuPlatform, ValidityChecks) {
  GpuPlatform gpu;
  EXPECT_TRUE(gpu.valid({0, 1}));
  EXPECT_TRUE(gpu.valid({17, 4}));
  EXPECT_FALSE(gpu.valid({-1, 1}));
  EXPECT_FALSE(gpu.valid({18, 1}));
  EXPECT_FALSE(gpu.valid({0, 0}));
  EXPECT_FALSE(gpu.valid({0, 5}));
  EXPECT_THROW(gpu.render_ideal(medium_frame(), {0, 0}, kPeriod30), std::invalid_argument);
  EXPECT_THROW(gpu.render_ideal(medium_frame(), {0, 1}, 0.0), std::invalid_argument);
}

TEST(GpuPlatform, VoltageMonotone) {
  GpuPlatform gpu;
  EXPECT_LT(gpu.voltage(300), gpu.voltage(700));
  EXPECT_LT(gpu.voltage(700), gpu.voltage(1150));
}

TEST(GpuPlatform, FrequencyAndSlicesSpeedUpFrames) {
  GpuPlatform gpu;
  const auto slow = gpu.render_ideal(medium_frame(), {2, 1}, kPeriod30);
  const auto fast_f = gpu.render_ideal(medium_frame(), {12, 1}, kPeriod30);
  const auto fast_s = gpu.render_ideal(medium_frame(), {2, 4}, kPeriod30);
  EXPECT_LT(fast_f.frame_time_s, slow.frame_time_s);
  EXPECT_LT(fast_s.frame_time_s, slow.frame_time_s);
}

TEST(GpuPlatform, SliceScalingIsSubLinear) {
  GpuPlatform gpu;
  FrameDescriptor f = medium_frame();
  f.mem_exposed = 0.0;  // isolate compute scaling
  const double t1 = gpu.render_ideal(f, {8, 1}, kPeriod30).frame_time_s;
  const double t4 = gpu.render_ideal(f, {8, 4}, kPeriod30).frame_time_s;
  const double speedup = t1 / t4;
  EXPECT_GT(speedup, 3.0);
  EXPECT_LT(speedup, 4.0);
}

TEST(GpuPlatform, MemoryTimeFrequencyIndependent) {
  GpuPlatform gpu;
  FrameDescriptor f = medium_frame();
  f.render_cycles = 1e3;  // negligible compute
  f.mem_exposed = 1.0;
  const double t_lo = gpu.render_ideal(f, {0, 4}, kPeriod30).frame_time_s;
  const double t_hi = gpu.render_ideal(f, {17, 4}, kPeriod30).frame_time_s;
  EXPECT_NEAR(t_lo, t_hi, t_lo * 0.02);
}

TEST(GpuPlatform, DeadlineDetection) {
  GpuPlatform gpu;
  FrameDescriptor heavy = medium_frame();
  heavy.render_cycles = 300e6;
  EXPECT_FALSE(gpu.render_ideal(heavy, {0, 1}, kPeriod30).deadline_met);
  FrameDescriptor light = medium_frame();
  light.render_cycles = 2e6;
  EXPECT_TRUE(gpu.render_ideal(light, {10, 2}, kPeriod30).deadline_met);
}

TEST(GpuPlatform, EnergyScopesNest) {
  GpuPlatform gpu;
  const auto r = gpu.render_ideal(medium_frame(), {8, 2}, kPeriod30);
  EXPECT_GT(r.gpu_energy_j, 0.0);
  EXPECT_GT(r.pkg_energy_j, r.gpu_energy_j);
  EXPECT_GT(r.pkg_dram_energy_j, r.pkg_energy_j);
}

TEST(GpuPlatform, MoreSlicesCostMorePowerAtFixedWork) {
  GpuPlatform gpu;
  FrameDescriptor light = medium_frame();
  light.render_cycles = 3e6;  // light enough that both configs meet deadline
  const auto s1 = gpu.render_ideal(light, {4, 1}, kPeriod30);
  const auto s4 = gpu.render_ideal(light, {4, 4}, kPeriod30);
  ASSERT_TRUE(s1.deadline_met);
  ASSERT_TRUE(s4.deadline_met);
  // Four slices finish faster but leak 4x while idling: worse energy for a
  // light frame — this asymmetry is what ENMPC exploits (SharkDash case).
  EXPECT_GT(s4.gpu_energy_j, s1.gpu_energy_j);
}

TEST(GpuPlatform, RaceToIdleAccounting) {
  GpuPlatform gpu;
  // Same config, lighter frame -> less busy energy but same leakage floor.
  const auto heavy = gpu.render_ideal(medium_frame(), {10, 2}, kPeriod30);
  FrameDescriptor lf = medium_frame();
  lf.render_cycles = 4e6;
  const auto light = gpu.render_ideal(lf, {10, 2}, kPeriod30);
  EXPECT_LT(light.gpu_energy_j, heavy.gpu_energy_j);
  EXPECT_GT(light.gpu_energy_j, 0.0);
}

TEST(GpuPlatform, TransitionCosts) {
  GpuPlatform gpu;
  const auto none = gpu.transition_cost({5, 2}, {5, 2});
  EXPECT_DOUBLE_EQ(none.time_s, 0.0);
  EXPECT_DOUBLE_EQ(none.energy_j, 0.0);
  const auto dvfs = gpu.transition_cost({5, 2}, {6, 2});
  const auto slice = gpu.transition_cost({5, 2}, {5, 3});
  const auto both = gpu.transition_cost({5, 2}, {6, 3});
  EXPECT_GT(dvfs.time_s, 0.0);
  EXPECT_GT(slice.time_s, dvfs.time_s);     // slice changes are the slow knob
  EXPECT_GT(slice.energy_j, dvfs.energy_j);
  EXPECT_NEAR(both.time_s, dvfs.time_s + slice.time_s, 1e-12);
}

TEST(GpuPlatform, NoisyRenderIsUnbiased) {
  GpuPlatform gpu({}, 99);
  const auto ideal = gpu.render_ideal(medium_frame(), {8, 2}, kPeriod30);
  double sum = 0.0;
  const int n = 300;
  for (int i = 0; i < n; ++i) sum += gpu.render(medium_frame(), {8, 2}, kPeriod30).frame_time_s;
  EXPECT_NEAR(sum / n, ideal.frame_time_s, ideal.frame_time_s * 0.01);
}

}  // namespace
}  // namespace oal::gpu
