#include "core/features.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

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

// ---- The model basis, one block at a time -----------------------------------
// Physically-motivated basis.  Let f_l, f_b be GHz, n_l, n_b core counts.
// log(t/I) of the analytic platform is approximately affine in: log-speeds of
// the two clusters, memory-intensity crossings, and the parallel-width terms.
// Keeping everything smooth and bounded keeps the RLS covariance well
// conditioned.  Each block writes its row in ModelBasis::kTerms slot order.

namespace {

// Parallel-fraction estimate from the run-queue depth (robust even when a
// single core is active, unlike the utilization-based proxy).
double parallel_fraction(const WorkloadFeatures& w) {
  return w.runnable > 1.0 ? std::clamp((w.runnable - 1.0) / w.runnable, 0.0, 1.0) : w.pf_proxy;
}

void workload_row(const WorkloadFeatures& w, double pf, double* t) {
  t[0] = 1.0;
  t[1] = w.mpki;
  t[2] = w.bmpki;
  t[3] = pf;
  t[4] = w.mem_ai;
  t[5] = w.ext_per_inst;
}

void little_row(double f_l, double log_fl, double mpki, double pf, double* t) {
  t[0] = log_fl;
  t[1] = mpki * f_l;
  t[2] = f_l;
  t[3] = f_l * f_l;
  t[4] = pf * log_fl;
}

void big_row(bool big_on, double f_b, double log_f_b, double mpki, double pf, double* t) {
  const double log_fb = big_on ? log_f_b : 0.0;
  t[0] = log_fb;
  t[1] = big_on ? 1.0 : 0.0;
  t[2] = mpki * (big_on ? f_b : 0.0);
  t[3] = big_on ? f_b : 0.0;
  t[4] = big_on ? f_b * f_b : 0.0;
  t[5] = pf * log_fb;
}

// The four cores-row terms that depend on the active core count only, in
// cores-row slots 0, 3, 4, 5.
struct WidthTerms {
  double pf_width, w_eff, pf_w_eff, pf_per_w_eff;
};

WidthTerms width_terms(double active_cores, double runnable, double pf) {
  // Usable parallel width: software threads cap hardware width.
  const double w_eff = std::min(std::max(runnable, 1.0), active_cores);
  const double width = std::log(std::max(w_eff, 1.0));
  return {pf * width, w_eff, pf * w_eff, pf / std::max(w_eff, 1.0)};
}

void cores_row(double n_l, double n_b, const WidthTerms& wt, double* t) {
  t[0] = wt.pf_width;
  t[1] = n_l;
  t[2] = n_b;
  t[3] = wt.w_eff;
  t[4] = wt.pf_w_eff;
  t[5] = wt.pf_per_w_eff;
}

void gather(const double* const rows[ModelBasis::kBlocks], double* out) {
  for (std::size_t j = 0; j < ModelBasis::kDim; ++j)
    out[j] = rows[ModelBasis::kTerms[j].block][ModelBasis::kTerms[j].slot];
}

}  // namespace

// oal-lint: hot-path
void FeatureExtractor::model_features_into(const WorkloadFeatures& w, const soc::SocConfig& c,
                                           common::Vec& out) const {
  const double f_l = space_.little_freq_mhz(c) / 1000.0;  // GHz
  const double f_b = space_.big_freq_mhz(c) / 1000.0;
  const bool big_on = c.num_big >= 1;
  const double n_l = static_cast<double>(c.num_little);
  const double n_b = big_on ? static_cast<double>(c.num_big) : 0.0;
  const double pf = parallel_fraction(w);
  double workload[6], little[5], big[6], cores[6];
  workload_row(w, pf, workload);
  little_row(f_l, std::log(f_l), w.mpki, pf, little);
  big_row(big_on, f_b, big_on ? std::log(f_b) : 0.0, w.mpki, pf, big);
  cores_row(n_l, n_b, width_terms(n_l + n_b, w.runnable, pf), cores);
  const double* const rows[ModelBasis::kBlocks] = {workload, little, big, cores};
  // Indexed writes into a fixed-size buffer: resize reaches model_dim()
  // once, then is a no-op.
  // oal-lint: allow(hot-path-alloc)
  out.resize(model_dim());
  gather(rows, out.data());
}
// oal-lint: hot-path-end

std::size_t FeatureExtractor::model_dim() const { return ModelBasis::kDim; }

ModelBasis::ModelBasis(const soc::ConfigSpace& space) : space_(space) {
  for (const double mhz : space.little_freqs()) {
    little_ghz_.push_back(mhz / 1000.0);
    little_log_.push_back(std::log(little_ghz_.back()));
  }
  for (const double mhz : space.big_freqs()) {
    big_ghz_.push_back(mhz / 1000.0);
    big_log_.push_back(std::log(big_ghz_.back()));
  }
  big_start_ = kWidth[kWorkload] + kWidth[kLittle] * little_ghz_.size();
  cores_start_ = big_start_ + kWidth[kBig] * (big_ghz_.size() + 1);
  const std::size_t cores_rows =
      soc::ConfigSpace::kMaxLittleCores * (soc::ConfigSpace::kMaxBigCores + 1);
  table_.assign(cores_start_ + kWidth[kCores] * cores_rows, 0.0);
}

// oal-lint: hot-path
void ModelBasis::build(const WorkloadFeatures& w) {
  const double pf = parallel_fraction(w);
  double* t = table_.data();
  workload_row(w, pf, t);
  t += kWidth[kWorkload];
  for (std::size_t i = 0; i < little_ghz_.size(); ++i, t += kWidth[kLittle])
    little_row(little_ghz_[i], little_log_[i], w.mpki, pf, t);
  for (std::size_t i = 0; i < big_ghz_.size(); ++i, t += kWidth[kBig])
    big_row(true, big_ghz_[i], big_log_[i], w.mpki, pf, t);
  big_row(false, 0.0, 0.0, w.mpki, pf, t);
  t += kWidth[kBig];
  constexpr int kMaxActive = soc::ConfigSpace::kMaxLittleCores + soc::ConfigSpace::kMaxBigCores;
  WidthTerms width[kMaxActive + 1];
  for (int a = 1; a <= kMaxActive; ++a)
    width[a] = width_terms(static_cast<double>(a), w.runnable, pf);
  for (int nl = 1; nl <= soc::ConfigSpace::kMaxLittleCores; ++nl)
    for (int nb = 0; nb <= soc::ConfigSpace::kMaxBigCores; ++nb, t += kWidth[kCores])
      cores_row(static_cast<double>(nl), static_cast<double>(nb), width[nl + nb], t);
}

void ModelBasis::phi_into(const Rows& r, common::Vec& out) const {
  const double* const rows[kBlocks] = {table_.data() + r.start[kWorkload],
                                       table_.data() + r.start[kLittle],
                                       table_.data() + r.start[kBig],
                                       table_.data() + r.start[kCores]};
  // Indexed writes into a fixed-size buffer: resize reaches kDim once, then
  // is a no-op.
  // oal-lint: allow(hot-path-alloc)
  out.resize(kDim);
  gather(rows, out.data());
}

void ModelBasis::weigh_into(const common::Vec& theta_a, const common::Vec& theta_b,
                            std::vector<double>& out) const {
  if (theta_a.size() != kDim || theta_b.size() != kDim)
    throw std::invalid_argument("ModelBasis::weigh_into: dim mismatch");
  // The weights of each slot of each block.
  double slot_a[kBlocks][6] = {}, slot_b[kBlocks][6] = {};
  for (std::size_t j = 0; j < kDim; ++j) {
    slot_a[kTerms[j].block][kTerms[j].slot] = theta_a[j];
    slot_b[kTerms[j].block][kTerms[j].slot] = theta_b[j];
  }
  // Resize reaches twice the table size once, then is a no-op.
  // oal-lint: allow(hot-path-alloc)
  out.resize(2 * table_.size());
  const std::size_t ends[kBlocks] = {kWidth[kWorkload], big_start_, cores_start_, table_.size()};
  std::size_t row = 0;
  for (int b = kWorkload; b < kBlocks; ++b)
    for (; row < ends[b]; row += kWidth[b])
      for (std::size_t slot = 0; slot < kWidth[b]; ++slot) {
        out[2 * (row + slot)] = slot_a[b][slot] * table_[row + slot];
        out[2 * (row + slot) + 1] = slot_b[b][slot] * table_[row + slot];
      }
}
// oal-lint: hot-path-end

}  // namespace oal::core
