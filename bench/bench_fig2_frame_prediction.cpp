// Reproduces Fig. 2: adaptive frame-time prediction for a Nenamark2-like
// graphics workload across runtime frequency changes, using STAFF-style
// online learning (RLS with stabilized adaptive forgetting factor and
// online feature selection).
//
// The frame loop runs through ExperimentEngine as a GpuScenario cataloged
// in a ScenarioRegistry and driven by the shared bench driver: a
// fixed-DVFS-schedule controller carries the STAFF predictor and logs
// (measured, estimated) pairs, which on_complete harvests for the tables.
//
// Paper: "the estimated frame time closely follows the measured value at
// different operating frequencies with less than 5% error."
#include <cmath>
#include <cstdio>
#include <iostream>
#include <memory>

#include "bench/driver.h"
#include "common/stats.h"
#include "common/table.h"
#include "core/domain.h"
#include "core/gpu_models.h"
#include "core/scenario_registry.h"
#include "workloads/gpu_benchmarks.h"

using namespace oal;
using namespace oal::core;

namespace {

/// Replays a fixed DVFS schedule (the Fig. 2 frequency staircase) while a
/// STAFF predictor estimates each upcoming frame's time; predictions are
/// made before the frame renders, exactly as the original serial loop did.
class StaffScheduleController : public GpuController {
 public:
  StaffScheduleController(const gpu::GpuPlatform& platform, std::size_t num_frames,
                          std::size_t warmup)
      : platform_(&platform), staff_(platform), num_frames_(num_frames), warmup_(warmup) {}

  static int freq_at(std::size_t frame) { return 4 + 4 * static_cast<int>((frame / 200) % 4); }
  static constexpr int kSlices = 2;

  std::string name() const override { return "staff-schedule"; }

  gpu::GpuConfig step(const gpu::FrameResult& result, const gpu::GpuConfig& current,
                      std::size_t frame_index) override {
    if (frame_index >= warmup_) {
      actual_ms_.push_back(result.frame_time_s * 1e3);
      freq_mhz_.push_back(platform_->freq_mhz(current.freq_idx));
    }
    staff_.update(w_, current, result);
    w_.observe(result, 2.0 / (1.0 + platform_->params().slice_sync_overhead));
    const gpu::GpuConfig next{freq_at(frame_index + 1), kSlices};
    if (frame_index + 1 >= warmup_ && frame_index + 1 < num_frames_)
      predicted_ms_.push_back(staff_.predict_ms(w_, next));
    return next;
  }

  const std::vector<double>& actual_ms() const { return actual_ms_; }
  const std::vector<double>& predicted_ms() const { return predicted_ms_; }
  const std::vector<double>& freq_mhz() const { return freq_mhz_; }
  const StaffFrameTimePredictor& staff() const { return staff_; }

 private:
  const gpu::GpuPlatform* platform_;
  StaffFrameTimePredictor staff_;
  GpuWorkloadState w_;
  std::size_t num_frames_;
  std::size_t warmup_;
  std::vector<double> actual_ms_, predicted_ms_, freq_mhz_;
};

struct Harvest {
  std::vector<double> actual_ms, predicted_ms, freq_mhz;
  double lambda = 0.0;
  std::size_t num_active = 0;
};

}  // namespace

int main(int argc, char** argv) {
  std::size_t num_frames = 1200;
  std::size_t warmup = 50;
  bench::BenchDriver driver("fig2_frame_prediction");
  driver.add_size_option("--frames", &num_frames, "frames in the Nenamark2-like trace");
  driver.add_size_option("--warmup", &warmup, "unrecorded leading frames");
  if (!driver.parse(argc, argv)) return driver.exit_code();
  if (num_frames <= warmup) {
    // Nothing would be recorded and the MAPE over zero frames would throw.
    std::fprintf(stderr, "%s: --frames (%zu) must exceed --warmup (%zu)\n",
                 driver.bench_name().c_str(), num_frames, warmup);
    return 2;
  }

  auto harvest = std::make_shared<Harvest>();
  ScenarioRegistry registry;
  registry.add("fig2/nenamark2", [num_frames, warmup, harvest] {
    GpuScenario s;
    {
      common::Rng rng(5);
      s.trace = workloads::GpuBenchmarks::nenamark2(num_frames, rng);
    }
    s.initial = gpu::GpuConfig{StaffScheduleController::freq_at(0),
                               StaffScheduleController::kSlices};
    s.make_controller = [num_frames, warmup](GpuScenarioContext& ctx) {
      return GpuControllerInstance{
          std::make_unique<StaffScheduleController>(ctx.platform, num_frames, warmup), nullptr};
    };
    s.on_complete = [harvest](GpuController& ctl, const GpuRunResult&) {
      auto& sched = dynamic_cast<StaffScheduleController&>(ctl);
      harvest->actual_ms = sched.actual_ms();
      harvest->predicted_ms = sched.predicted_ms();
      harvest->freq_mhz = sched.freq_mhz();
      harvest->lambda = sched.staff().model().lambda();
      harvest->num_active = sched.staff().model().num_active();
    };
    return AnyScenario(std::move(s));
  });
  if (driver.listing()) return driver.list(registry);

  ExperimentEngine engine;
  const auto results = engine.run_any(driver.select(registry));
  const auto& actual_ms = harvest->actual_ms;
  const auto& predicted_ms = harvest->predicted_ms;
  const gpu::GpuPlatform plat;  // frequency table for the segment report

  std::puts("=== Fig. 2: measured vs estimated frame time (Nenamark2-like) ===");
  common::Table series({"Frame", "GPU freq (MHz)", "Measured (ms)", "Estimated (ms)", "Err (%)"});
  for (std::size_t i = 0; i < actual_ms.size(); i += 60) {
    series.add_row(std::to_string(i + warmup),
                   {harvest->freq_mhz[i], actual_ms[i], predicted_ms[i],
                    100.0 * std::abs(predicted_ms[i] - actual_ms[i]) / actual_ms[i]},
                   2);
  }
  series.print(std::cout);

  const double overall_mape = common::mape(actual_ms, predicted_ms);
  std::printf("\nOverall MAPE: %.2f%% over %zu frames (paper: <5%%), corr = %.3f\n", overall_mape,
              actual_ms.size(), common::correlation(actual_ms, predicted_ms));

  // Per-frequency-segment error: adaptation across DVFS changes.
  common::Table seg({"Segment freq (MHz)", "MAPE (%)"});
  for (int fi : {4, 8, 12, 16}) {
    std::vector<double> a, p;
    for (std::size_t i = 0; i < actual_ms.size(); ++i) {
      if (harvest->freq_mhz[i] == plat.freq_mhz(fi)) {
        a.push_back(actual_ms[i]);
        p.push_back(predicted_ms[i]);
      }
    }
    if (!a.empty()) seg.add_row(common::Table::fmt(plat.freq_mhz(fi), 0), {common::mape(a, p)}, 2);
  }
  std::puts("");
  seg.print(std::cout);
  std::printf("\nSTAFF state: lambda = %.4f, active features = %zu of 8\n", harvest->lambda,
              harvest->num_active);

  if (driver.json().enabled()) {
    Metrics m = results[0].metrics();
    m.emplace_back("mape_pct", overall_mape);
    m.emplace_back("correlation", common::correlation(actual_ms, predicted_ms));
    driver.json().write_metrics(driver.bench_name(), results[0].id(), m);
  }
  return overall_mape < 8.0 ? 0 : 1;
}
