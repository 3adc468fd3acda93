#include "soc/platform.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "common/fnv.h"

namespace oal::soc {

std::uint64_t platform_fingerprint(const PlatformParams& p) {
  return common::fnv1a_doubles({p.v_min_little, p.v_max_little, p.v_min_big, p.v_max_big,
                                p.v_exponent, p.ceff_little_nf, p.ceff_big_nf,
                                p.leak_little_w_per_v, p.leak_big_w_per_v, p.base_power_w,
                                p.mem_latency_ns, p.mem_bw_gbps, p.dram_energy_nj_per_byte,
                                p.dram_static_w, p.cache_line_bytes, p.writeback_factor,
                                p.stall_exposed_little, p.stall_exposed_big,
                                p.branch_penalty_little, p.branch_penalty_big, p.sync_overhead});
}

BigLittlePlatform::BigLittlePlatform(PlatformParams params, std::uint64_t noise_seed)
    : params_(params), fingerprint_(platform_fingerprint(params_)), noise_rng_(noise_seed) {
  v_little_table_.reserve(space_.little_freqs().size());
  for (double f : space_.little_freqs()) v_little_table_.push_back(voltage_little(f));
  v_big_table_.reserve(space_.big_freqs().size());
  for (double f : space_.big_freqs()) v_big_table_.push_back(voltage_big(f));
}

double BigLittlePlatform::voltage_little(double f_mhz) const {
  const double span = space_.little_freqs().back() - space_.little_freqs().front();
  const double t = (f_mhz - space_.little_freqs().front()) / span;
  return params_.v_min_little +
         std::pow(t, params_.v_exponent) * (params_.v_max_little - params_.v_min_little);
}

double BigLittlePlatform::voltage_big(double f_mhz) const {
  const double span = space_.big_freqs().back() - space_.big_freqs().front();
  const double t = (f_mhz - space_.big_freqs().front()) / span;
  return params_.v_min_big +
         std::pow(t, params_.v_exponent) * (params_.v_max_big - params_.v_min_big);
}

namespace {

struct ClusterPerf {
  double cpi = 0.0;
  double throughput = 0.0;  // instructions / second per core
};

}  // namespace

SnippetResult BigLittlePlatform::execute_ideal(const SnippetDescriptor& s,
                                               const SocConfig& c) const {
  return execute_ideal_impl(s, c, nullptr);
}

SnippetResult BigLittlePlatform::execute_ideal_impl(const SnippetDescriptor& s, const SocConfig& c,
                                                    PowerBreakdown* breakdown) const {
  if (!space_.valid(c)) throw std::invalid_argument("execute_ideal: invalid config");
  const double f_l = space_.little_freq_mhz(c) * 1e6;  // Hz
  const double f_b = space_.big_freq_mhz(c) * 1e6;
  const double n_l = static_cast<double>(c.num_little);
  const double n_b = static_cast<double>(c.num_big);

  auto cluster_perf = [&](bool big, double mem_latency_ns) -> ClusterPerf {
    const double f = big ? f_b : f_l;
    const double base = big ? s.base_cpi_big : s.base_cpi_little;
    const double bp = big ? params_.branch_penalty_big : params_.branch_penalty_little;
    const double exposed = big ? params_.stall_exposed_big : params_.stall_exposed_little;
    const double miss_cycles = mem_latency_ns * 1e-9 * f;  // latency in cycles at f
    ClusterPerf p;
    p.cpi = base + (s.branch_mpki / 1000.0) * bp + (s.l2_mpki / 1000.0) * miss_cycles * exposed;
    p.throughput = f / p.cpi;
    return p;
  };

  // Parallel-region efficiency with synchronization overhead.
  auto par_eff = [&](double n) { return n <= 1.0 ? n : n / (1.0 + params_.sync_overhead * (n - 1.0)); };

  // Cores used in the parallel region: at most max_threads software threads,
  // greedily placed on the fastest cores first (HMP scheduler behaviour).
  struct ParAlloc {
    double k_big = 0.0;
    double k_little = 0.0;
  };
  auto par_alloc = [&](const ClusterPerf& pl, const ClusterPerf& pb) -> ParAlloc {
    const double k = std::min(static_cast<double>(std::max(s.max_threads, 1)), n_l + n_b);
    ParAlloc a;
    if (c.num_big >= 1 && pb.throughput >= pl.throughput) {
      a.k_big = std::min(n_b, k);
      a.k_little = std::min(n_l, k - a.k_big);
    } else {
      a.k_little = std::min(n_l, k);
      a.k_big = c.num_big >= 1 ? std::min(n_b, k - a.k_little) : 0.0;
    }
    return a;
  };

  auto exec_time = [&](double mem_latency_ns) -> double {
    const ClusterPerf pl = cluster_perf(false, mem_latency_ns);
    const ClusterPerf pb = cluster_perf(true, mem_latency_ns);
    const double thr_serial = (c.num_big >= 1) ? std::max(pb.throughput, pl.throughput)
                                               : pl.throughput;
    const ParAlloc a = par_alloc(pl, pb);
    const double k = a.k_big + a.k_little;
    const double thr_sum = a.k_little * pl.throughput + a.k_big * pb.throughput;
    const double thr_par = k > 0.0 ? thr_sum * (par_eff(k) / k) : thr_serial;
    const double i_serial = (1.0 - s.parallel_fraction) * s.instructions;
    const double i_par = s.parallel_fraction * s.instructions;
    return i_serial / thr_serial + (i_par > 0.0 ? i_par / thr_par : 0.0);
  };

  // Two-pass memory-contention resolution: compute time at nominal latency,
  // derive bandwidth utilization, inflate latency M/M/1-style, recompute.
  const double traffic_bytes =
      (s.l2_mpki / 1000.0) * s.instructions * params_.cache_line_bytes * params_.writeback_factor;
  double latency = params_.mem_latency_ns;
  double t = exec_time(latency);
  {
    const double bw_used = traffic_bytes / t / 1e9;  // GB/s
    const double rho = std::min(bw_used / params_.mem_bw_gbps, 0.95);
    latency = params_.mem_latency_ns * (1.0 + rho * rho / (1.0 - rho));
    t = exec_time(latency);
  }

  // --- Busy-time bookkeeping for utilization & cycle counters -------------
  const ClusterPerf pl = cluster_perf(false, latency);
  const ClusterPerf pb = cluster_perf(true, latency);
  const bool serial_on_big = c.num_big >= 1 && pb.throughput >= pl.throughput;
  const double thr_serial = serial_on_big ? pb.throughput : pl.throughput;
  const double i_serial = (1.0 - s.parallel_fraction) * s.instructions;
  const double t_serial = i_serial / thr_serial;
  const double t_par = std::max(t - t_serial, 0.0);
  const ParAlloc alloc = par_alloc(pl, pb);

  double busy_little = t_par * alloc.k_little;  // core-seconds
  double busy_big = t_par * alloc.k_big;
  (serial_on_big ? busy_big : busy_little) += t_serial;

  const double u_little = (n_l > 0.0 && t > 0.0) ? std::min(busy_little / (n_l * t), 1.0) : 0.0;
  const double u_big = (n_b > 0.0 && t > 0.0) ? std::min(busy_big / (n_b * t), 1.0) : 0.0;

  // --- Power ---------------------------------------------------------------
  const double v_l = v_little_table_[c.little_freq_idx];
  const double v_b = v_big_table_[c.big_freq_idx];
  const double p_dyn_l = params_.ceff_little_nf * 1e-9 * v_l * v_l * f_l * n_l * u_little;
  const double p_dyn_b =
      (c.num_big >= 1) ? params_.ceff_big_nf * 1e-9 * v_b * v_b * f_b * n_b * u_big : 0.0;
  const double p_leak = n_l * params_.leak_little_w_per_v * v_l +
                        (c.num_big >= 1 ? n_b * params_.leak_big_w_per_v * v_b : 0.0);
  const double p_dram =
      (traffic_bytes / t) * params_.dram_energy_nj_per_byte * 1e-9 + params_.dram_static_w;
  const double p_total = p_dyn_l + p_dyn_b + p_leak + p_dram + params_.base_power_w;
  if (breakdown) {
    breakdown->little_w = p_dyn_l + n_l * params_.leak_little_w_per_v * v_l;
    breakdown->big_w = p_dyn_b + (c.num_big >= 1 ? n_b * params_.leak_big_w_per_v * v_b : 0.0);
    breakdown->dram_w = p_dram;
    breakdown->base_w = params_.base_power_w;
  }

  SnippetResult r;
  r.exec_time_s = t;
  r.avg_power_w = p_total;
  r.energy_j = p_total * t;

  PerfCounters& k = r.counters;
  k.instructions_retired = s.instructions;
  k.cpu_cycles = busy_little * f_l + busy_big * f_b;
  k.branch_mispredictions = (s.branch_mpki / 1000.0) * s.instructions;
  k.l2_cache_misses = (s.l2_mpki / 1000.0) * s.instructions;
  k.data_memory_accesses = s.mem_access_per_inst * s.instructions;
  k.noncache_external_requests =
      (s.l2_mpki / 1000.0) * s.instructions * params_.writeback_factor;
  k.little_cluster_utilization = u_little;
  k.big_cluster_utilization = u_big;
  k.total_power_w = p_total;
  // Scheduler run-queue depth: one runnable thread in the serial region,
  // max_threads in the parallel region, weighted by region time shares.
  const double t_share_par = t > 0.0 ? t_par / t : 0.0;
  k.avg_runnable_threads =
      (1.0 - t_share_par) * 1.0 + t_share_par * static_cast<double>(std::max(s.max_threads, 1));
  return r;
}

PowerBreakdown BigLittlePlatform::power_breakdown(const SnippetDescriptor& s,
                                                  const SocConfig& c) const {
  PowerBreakdown out;
  (void)execute_ideal_impl(s, c, &out);
  return out;
}

double BigLittlePlatform::apply_noise(double v, double sigma) {
  return v * std::max(1.0 + sigma * noise_rng_.normal(), 0.0);
}

SnippetResult BigLittlePlatform::execute(const SnippetDescriptor& s, const SocConfig& c) {
  SnippetResult r = execute_ideal(s, c);
  const double cs = params_.counter_noise;
  PerfCounters& k = r.counters;
  k.instructions_retired = apply_noise(k.instructions_retired, cs * 0.1);
  k.cpu_cycles = apply_noise(k.cpu_cycles, cs);
  k.branch_mispredictions = apply_noise(k.branch_mispredictions, cs);
  k.l2_cache_misses = apply_noise(k.l2_cache_misses, cs);
  k.data_memory_accesses = apply_noise(k.data_memory_accesses, cs);
  k.noncache_external_requests = apply_noise(k.noncache_external_requests, cs);
  k.little_cluster_utilization = std::clamp(apply_noise(k.little_cluster_utilization, cs), 0.0, 1.0);
  k.big_cluster_utilization = std::clamp(apply_noise(k.big_cluster_utilization, cs), 0.0, 1.0);
  k.total_power_w = apply_noise(k.total_power_w, params_.power_noise);
  k.avg_runnable_threads = std::max(apply_noise(k.avg_runnable_threads, cs), 1.0);
  // Measured energy/power reflect the same noisy sensor.
  r.avg_power_w = k.total_power_w;
  r.energy_j = r.avg_power_w * r.exec_time_s;
  return r;
}

SocConfig BigLittlePlatform::best_energy_config(const SnippetDescriptor& s) const {
  SocConfig best;
  double best_e = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < space_.size(); ++i) {
    const SocConfig c = space_.config_at(i);
    const double e = execute_ideal(s, c).energy_j;
    if (e < best_e) {
      best_e = e;
      best = c;
    }
  }
  return best;
}

}  // namespace oal::soc
