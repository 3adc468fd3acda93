#include "gpu/gpu_model.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace oal::gpu {

GpuPlatform::GpuPlatform(GpuParams params, std::uint64_t noise_seed)
    : params_(params), noise_rng_(noise_seed) {
  if (params_.freqs_mhz.empty()) throw std::invalid_argument("GpuPlatform: empty frequency table");
  if (params_.max_slices < 1) throw std::invalid_argument("GpuPlatform: max_slices < 1");
}

double GpuPlatform::voltage(double f_mhz) const {
  const double lo = params_.freqs_mhz.front();
  const double hi = params_.freqs_mhz.back();
  const double t = (f_mhz - lo) / (hi - lo);
  return params_.v_min + t * (params_.v_max - params_.v_min);
}

bool GpuPlatform::valid(const GpuConfig& c) const {
  return c.freq_idx >= 0 && c.freq_idx < static_cast<int>(params_.freqs_mhz.size()) &&
         c.num_slices >= 1 && c.num_slices <= params_.max_slices;
}

FrameResult GpuPlatform::render_ideal(const FrameDescriptor& f, const GpuConfig& c,
                                      double period_s) const {
  if (!valid(c)) throw std::invalid_argument("GpuPlatform::render_ideal: invalid config");
  if (period_s <= 0.0) throw std::invalid_argument("GpuPlatform::render_ideal: bad period");
  const double freq = freq_mhz(c.freq_idx) * 1e6;  // Hz
  const double n = static_cast<double>(c.num_slices);
  const double eff = n / (1.0 + params_.slice_sync_overhead * (n - 1.0));

  const double t_compute = f.render_cycles / (freq * eff);
  const double t_mem = f.mem_bytes / (params_.mem_bw_gbps * 1e9);
  const double frame_time = t_compute + f.mem_exposed * t_mem;

  const bool met = frame_time <= period_s;
  // A missed frame still occupies the whole next-vsync slot; busy time is
  // capped at the (extended) completion time for energy accounting.
  const double busy = std::min(frame_time, period_s);
  const double idle = std::max(period_s - frame_time, 0.0);

  const double v = voltage(freq_mhz(c.freq_idx));
  const double p_dyn = params_.ceff_slice_nf * 1e-9 * v * v * freq * n;
  const double p_leak = params_.leak_slice_w_per_v * v * n;
  const double p_active = p_dyn + p_leak + params_.gpu_base_w;
  const double p_idle = params_.idle_dyn_fraction * p_dyn + p_leak + params_.gpu_base_w;

  FrameResult r;
  r.frame_time_s = frame_time;
  r.deadline_met = met;
  r.gpu_busy_frac = std::min(frame_time / period_s, 1.0);
  r.gpu_energy_j = p_active * busy + p_idle * idle;

  // CPU producer: game logic + driver work each period, then cpuidle.
  const double t_cpu = f.cpu_cycles / (params_.cpu_freq_ghz * 1e9);
  const double cpu_energy = params_.cpu_dyn_w_at_busy * std::min(t_cpu, period_s);
  r.pkg_energy_j = r.gpu_energy_j + cpu_energy + params_.pkg_base_w * period_s;

  const double dram_energy =
      f.mem_bytes * params_.dram_energy_nj_per_byte * 1e-9 + params_.dram_static_w * period_s;
  r.pkg_dram_energy_j = r.pkg_energy_j + dram_energy;

  r.busy_cycles = f.render_cycles / eff;
  r.mem_bytes = f.mem_bytes;
  r.avg_gpu_power_w = r.gpu_energy_j / period_s;
  return r;
}

FrameResult GpuPlatform::render(const FrameDescriptor& f, const GpuConfig& c, double period_s) {
  FrameResult r = render_ideal(f, c, period_s);
  auto noisy = [&](double v, double sigma) {
    return v * std::max(1.0 + sigma * noise_rng_.normal(), 0.0);
  };
  r.frame_time_s = noisy(r.frame_time_s, params_.time_noise);
  r.deadline_met = r.frame_time_s <= period_s;
  r.gpu_busy_frac = std::min(r.frame_time_s / period_s, 1.0);
  r.gpu_energy_j = noisy(r.gpu_energy_j, params_.power_noise);
  r.pkg_energy_j = noisy(r.pkg_energy_j, params_.power_noise);
  r.pkg_dram_energy_j = noisy(r.pkg_dram_energy_j, params_.power_noise);
  r.busy_cycles = noisy(r.busy_cycles, params_.time_noise);
  r.avg_gpu_power_w = r.gpu_energy_j / period_s;
  return r;
}

GpuPlatform::TransitionCost GpuPlatform::transition_cost(const GpuConfig& from,
                                                         const GpuConfig& to) const {
  TransitionCost t;
  if (from.freq_idx != to.freq_idx) {
    t.time_s += params_.dvfs_transition_us * 1e-6;
    t.energy_j += params_.dvfs_transition_energy_mj * 1e-3;
  }
  if (from.num_slices != to.num_slices) {
    t.time_s += params_.slice_transition_ms * 1e-3;
    t.energy_j += params_.slice_transition_energy_mj * 1e-3;
  }
  return t;
}

}  // namespace oal::gpu
