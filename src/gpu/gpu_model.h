// Integrated-GPU subsystem model (Intel Core i5 class).
//
// Substitutes for the paper's Intel integrated-GPU platform in the ENMPC
// study (Fig. 5) and the Minnowboard GPU of the frame-time-prediction study
// (Fig. 2).  The model exposes the two control knobs of the paper with their
// different actuation granularities:
//   * operating frequency/voltage (fast: per frame), and
//   * number of power-gated slices (slow: costs time + energy to change).
//
// Per frame: compute time scales with 1/(f * slice-efficiency); exposed
// memory time is frequency-independent; the GPU races to the FPS deadline
// and idles (clock-gated) for the remainder of the period.  Energy is
// accounted at three scopes matching Fig. 5's bars: GPU, PKG (GPU + CPU +
// uncore) and PKG+DRAM.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "gpu/frame.h"

namespace oal::gpu {

struct GpuConfig {
  int freq_idx = 0;   ///< index into GpuParams::freqs_mhz
  int num_slices = 1; ///< active slices, 1..max_slices

  // Not `= default`: defaulted comparisons need C++20 and this builds as C++17.
  bool operator==(const GpuConfig& o) const {
    return freq_idx == o.freq_idx && num_slices == o.num_slices;
  }
  bool operator!=(const GpuConfig& o) const { return !(*this == o); }
};

struct GpuParams {
  std::vector<double> freqs_mhz{300, 350, 400, 450, 500, 550, 600, 650,
                                700, 750, 800, 850, 900, 950, 1000, 1050, 1100, 1150};
  int max_slices = 4;
  // Voltage curve endpoints (V).
  double v_min = 0.65, v_max = 1.05;
  // Dynamic energy: effective switched capacitance per slice (nF).
  double ceff_slice_nf = 1.10;
  // Leakage per active slice (W per volt).
  double leak_slice_w_per_v = 0.22;
  // GPU uncore (front end, display) power (W).
  double gpu_base_w = 0.12;
  // Idle (clock-gated but not power-gated) fraction of active dynamic power.
  double idle_dyn_fraction = 0.06;
  // Multi-slice scaling penalty.
  double slice_sync_overhead = 0.07;
  // Memory subsystem.
  double mem_bw_gbps = 12.0;
  double dram_energy_nj_per_byte = 0.06;
  double dram_static_w = 0.25;
  // CPU + rest of package (producer side).
  double cpu_freq_ghz = 2.4;
  double cpu_dyn_w_at_busy = 2.4;  ///< CPU power when 100% busy
  double pkg_base_w = 0.55;        ///< uncore/rail power in PKG scope
  // Actuation overheads (paper: slice changes are slow and costly).
  double dvfs_transition_us = 20.0;
  double dvfs_transition_energy_mj = 0.02;
  double slice_transition_ms = 1.5;
  double slice_transition_energy_mj = 1.2;
  // Measurement noise.
  double time_noise = 0.01;
  double power_noise = 0.015;
};

/// Per-frame execution result at one configuration.
struct FrameResult {
  double frame_time_s = 0.0;     ///< render completion time (excl. idle)
  bool deadline_met = true;      ///< frame_time <= period
  double gpu_busy_frac = 0.0;    ///< frame_time / period (clamped to 1)
  // Energies over one full period (busy + idle until the deadline).
  double gpu_energy_j = 0.0;
  double pkg_energy_j = 0.0;     ///< gpu + cpu + package base
  double pkg_dram_energy_j = 0.0;
  // Observables for online models.
  double busy_cycles = 0.0;
  double mem_bytes = 0.0;
  double avg_gpu_power_w = 0.0;
};

class GpuPlatform {
 public:
  explicit GpuPlatform(GpuParams params = {}, std::uint64_t noise_seed = 77);

  const GpuParams& params() const { return params_; }
  std::size_t num_freqs() const { return params_.freqs_mhz.size(); }
  double freq_mhz(int idx) const { return params_.freqs_mhz.at(static_cast<std::size_t>(idx)); }
  double voltage(double f_mhz) const;
  bool valid(const GpuConfig& c) const;

  /// Noise-free ground truth for one frame at one configuration, accounted
  /// over a deadline period of `period_s` seconds.
  FrameResult render_ideal(const FrameDescriptor& f, const GpuConfig& c, double period_s) const;

  /// Ground truth + measurement noise; advances the noise RNG.
  FrameResult render(const FrameDescriptor& f, const GpuConfig& c, double period_s);

  /// Energy + time penalty for switching configurations (charged by runners
  /// when a controller changes freq and/or slice count).
  struct TransitionCost {
    double time_s = 0.0;
    double energy_j = 0.0;
  };
  TransitionCost transition_cost(const GpuConfig& from, const GpuConfig& to) const;

 private:
  GpuParams params_;
  common::Rng noise_rng_;
};

}  // namespace oal::gpu
