#include "core/features.h"

#include <algorithm>
#include <cmath>

namespace oal::core {

WorkloadFeatures workload_features(const soc::PerfCounters& k, const soc::SocConfig& c) {
  WorkloadFeatures w;
  const double instr = std::max(k.instructions_retired, 1.0);
  w.mpki = k.l2_cache_misses / instr * 1000.0;
  w.bmpki = k.branch_mispredictions / instr * 1000.0;
  w.mem_ai = k.data_memory_accesses / instr;
  w.ext_per_inst = k.noncache_external_requests / instr;
  w.cpi_obs = k.cpu_cycles / instr;
  // Parallel-fraction proxy from cluster utilizations: total busy core-time
  // above one core's worth, normalized by the remaining cores.
  const double n_total = static_cast<double>(c.num_little + c.num_big);
  const double busy_cores = k.little_cluster_utilization * static_cast<double>(c.num_little) +
                            k.big_cluster_utilization * static_cast<double>(c.num_big);
  w.pf_proxy = n_total > 1.0 ? std::clamp((busy_cores - 1.0) / (n_total - 1.0), 0.0, 1.0) : 0.0;
  w.runnable = std::max(k.avg_runnable_threads, 1.0);
  return w;
}

common::Vec FeatureExtractor::policy_features(const soc::PerfCounters& k,
                                              const soc::SocConfig& current,
                                              const soc::ThermalTelemetry& telemetry) const {
  common::Vec v;
  policy_features_into(k, current, v, telemetry);
  return v;
}

// oal-lint: hot-path
void FeatureExtractor::policy_features_into(const soc::PerfCounters& k,
                                            const soc::SocConfig& current, common::Vec& out,
                                            const soc::ThermalTelemetry& telemetry) const {
  const WorkloadFeatures w = workload_features(k, current);
  const double fl_norm = static_cast<double>(current.little_freq_idx) /
                         static_cast<double>(space_.little_freqs().size() - 1);
  const double fb_norm = static_cast<double>(current.big_freq_idx) /
                         static_cast<double>(space_.big_freqs().size() - 1);
  // Indexed writes into a fixed-size buffer: resize reaches policy_dim()
  // once, then is a no-op.
  // oal-lint: allow(hot-path-alloc)
  out.resize(policy_dim());
  std::size_t i = 0;
  out[i++] = w.mpki;
  out[i++] = w.bmpki;
  out[i++] = w.mem_ai;
  out[i++] = w.ext_per_inst;
  out[i++] = w.pf_proxy;
  out[i++] = w.cpi_obs;
  out[i++] = w.runnable / 4.0;
  out[i++] = k.little_cluster_utilization;
  out[i++] = k.big_cluster_utilization;
  out[i++] = static_cast<double>(current.num_little) / 4.0;
  out[i++] = static_cast<double>(current.num_big) / 4.0;
  out[i++] = 0.5 * (fl_norm + fb_norm);
  if (thermal_aware_) {
    // Proximity of each thermal limit (0 = at ambient, 1 = at the throttle
    // limit; can exceed 1 transiently) and the budget normalized by the
    // neutral "no budget binds" level.  All three are ~[0, 1] scaled, like
    // the knob features, and take their neutral values (0, 0, 1) from a
    // default-constructed telemetry so blind-collected datasets stay usable.
    const auto proximity = [](double t_c, double limit_c, double ambient_c) {
      const double span = std::max(limit_c - ambient_c, 1.0);
      return std::clamp((t_c - ambient_c) / span, 0.0, 1.5);
    };
    out[i++] = proximity(telemetry.junction_c, telemetry.junction_limit_c, telemetry.ambient_c);
    out[i++] = proximity(telemetry.skin_c, telemetry.skin_limit_c, telemetry.ambient_c);
    out[i++] =
        std::clamp(telemetry.budget_w / soc::ThermalTelemetry::kUnconstrainedBudgetW, 0.0, 1.0);
  }
}
// oal-lint: hot-path-end

common::Vec FeatureExtractor::model_features(const WorkloadFeatures& w,
                                             const soc::SocConfig& c) const {
  common::Vec phi;
  model_features_into(w, c, phi);
  return phi;
}

// oal-lint: hot-path
void FeatureExtractor::model_features_into(const WorkloadFeatures& w, const soc::SocConfig& c,
                                           common::Vec& out) const {
  // Physically-motivated basis.  Let f_l, f_b be GHz, n_l, n_b core counts.
  // log(t/I) of the analytic platform is approximately affine in:
  //   log-speeds of the two clusters, memory-intensity crossings, and the
  //   parallel-width terms.  Keeping everything smooth and bounded keeps the
  //   RLS covariance well conditioned.
  const double f_l = space_.little_freq_mhz(c) / 1000.0;  // GHz
  const double f_b = space_.big_freq_mhz(c) / 1000.0;
  const double n_l = static_cast<double>(c.num_little);
  const double n_b = static_cast<double>(c.num_big);
  const bool big_on = c.num_big >= 1;
  const double log_fl = std::log(f_l);
  const double log_fb = big_on ? std::log(f_b) : 0.0;
  const double mpki = w.mpki;
  // Parallel-fraction estimate from the run-queue depth (robust even when a
  // single core is active, unlike the utilization-based proxy).
  const double pf = w.runnable > 1.0 ? std::clamp((w.runnable - 1.0) / w.runnable, 0.0, 1.0)
                                     : w.pf_proxy;
  // Usable parallel width: software threads cap hardware width.
  const double w_eff = std::min(std::max(w.runnable, 1.0), n_l + (big_on ? n_b : 0.0));
  const double width = std::log(std::max(w_eff, 1.0));

  // Indexed writes into a fixed-size buffer: resize reaches model_dim()
  // once, then is a no-op.
  // oal-lint: allow(hot-path-alloc)
  out.resize(model_dim());
  std::size_t i = 0;
  out[i++] = 1.0;
  out[i++] = log_fl;
  out[i++] = log_fb;
  out[i++] = big_on ? 1.0 : 0.0;
  out[i++] = mpki;
  out[i++] = mpki * f_l;
  out[i++] = mpki * (big_on ? f_b : 0.0);
  out[i++] = w.bmpki;
  out[i++] = pf;
  out[i++] = pf * width;
  out[i++] = n_l;
  out[i++] = big_on ? n_b : 0.0;
  out[i++] = f_l;
  out[i++] = big_on ? f_b : 0.0;
  out[i++] = f_l * f_l;
  out[i++] = big_on ? f_b * f_b : 0.0;
  out[i++] = pf * log_fl;
  out[i++] = pf * log_fb;
  out[i++] = w.mem_ai;
  out[i++] = w.ext_per_inst;
  out[i++] = w_eff;
  out[i++] = pf * w_eff;
  out[i++] = pf / std::max(w_eff, 1.0);
}
// oal-lint: hot-path-end

std::size_t FeatureExtractor::model_dim() const { return 23; }

}  // namespace oal::core
