#include "core/gpu_models.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace oal::core {

void GpuWorkloadState::observe(const gpu::FrameResult& r, double slice_eff, double alpha) {
  // busy_cycles reported by the platform are render_cycles / eff; multiply
  // back to get a configuration-independent content measure.
  const double work = r.busy_cycles * slice_eff;
  work_cycles = alpha * work + (1.0 - alpha) * work_cycles;
  mem_bytes = alpha * r.mem_bytes + (1.0 - alpha) * mem_bytes;
}

GpuOnlineModels::GpuOnlineModels(const gpu::GpuPlatform& platform)
    : platform_(&platform),
      time_model_(4, ml::RlsConfig{0.99, 1e2, 0.0}),
      energy_model_(6, ml::RlsConfig{0.99, 1e2, 0.0}) {}

double GpuOnlineModels::slice_eff(int n) const {
  const double nn = static_cast<double>(n);
  return nn / (1.0 + platform_->params().slice_sync_overhead * (nn - 1.0));
}

void GpuOnlineModels::time_features_into(const GpuWorkloadState& w, const gpu::GpuConfig& c,
                                         common::Vec& phi) const {
  const double f = platform_->freq_mhz(c.freq_idx) * 1e6;
  const double inv_speed = w.work_cycles / (f * slice_eff(c.num_slices));
  phi.clear();
  phi.push_back(inv_speed);
  phi.push_back(w.mem_bytes * 1e-9);
  phi.push_back(w.work_cycles * 1e-9);
  phi.push_back(1.0);
}

void GpuOnlineModels::energy_features_into(const GpuWorkloadState& w, const gpu::GpuConfig& c,
                                           double period_s, common::Vec& phi) const {
  const double f = platform_->freq_mhz(c.freq_idx) * 1e6;
  const double v = platform_->voltage(platform_->freq_mhz(c.freq_idx));
  const double n = static_cast<double>(c.num_slices);
  // phi doubles as the time-feature scratch for the busy-time prediction,
  // then is overwritten with the energy basis.
  const double busy = std::min(predict_frame_time_s(w, c, phi), period_s);
  const double idle = period_s - busy;
  phi.clear();
  phi.push_back(v * v * f * n * busy * 1e-9);  // active switching energy
  phi.push_back(v * v * f * n * idle * 1e-9);  // clock-gated residual switching
  phi.push_back(v * n * period_s);             // leakage
  phi.push_back(period_s);                     // uncore
  phi.push_back(w.mem_bytes * 1e-9);           // traffic-proportional term
  phi.push_back(busy);
}

double GpuOnlineModels::predict_frame_time_s(const GpuWorkloadState& w,
                                             const gpu::GpuConfig& c) const {
  common::Vec phi;
  return predict_frame_time_s(w, c, phi);
}

double GpuOnlineModels::predict_frame_time_s(const GpuWorkloadState& w, const gpu::GpuConfig& c,
                                             common::Vec& phi) const {
  time_features_into(w, c, phi);
  return std::max(time_model_.predict(phi), 1e-6);
}

double GpuOnlineModels::frame_time_freq_sensitivity(const GpuWorkloadState& w,
                                                    const gpu::GpuConfig& c) const {
  // d/df of theta_0 * work/(f*eff): analytic derivative of the learned model
  // (f in GHz for a usefully-scaled magnitude).
  const double f_ghz = platform_->freq_mhz(c.freq_idx) / 1000.0;
  const double theta0 = time_model_.weights()[0];
  const double inv_speed = w.work_cycles / (f_ghz * 1e9 * slice_eff(c.num_slices));
  return -theta0 * inv_speed / f_ghz;
}

double GpuOnlineModels::predict_gpu_energy_j(const GpuWorkloadState& w, const gpu::GpuConfig& c,
                                             double period_s) const {
  common::Vec phi;
  return predict_gpu_energy_j(w, c, period_s, phi);
}

double GpuOnlineModels::predict_gpu_energy_j(const GpuWorkloadState& w, const gpu::GpuConfig& c,
                                             double period_s, common::Vec& phi) const {
  energy_features_into(w, c, period_s, phi);
  return std::max(energy_model_.predict(phi), 1e-9);
}

double GpuOnlineModels::producer_energy_prior_j(const GpuWorkloadState& w,
                                                double period_s) const {
  const auto& p = platform_->params();
  const double t_cpu = w.cpu_cycles / (p.cpu_freq_ghz * 1e9);
  const double cpu_energy = p.cpu_dyn_w_at_busy * std::min(t_cpu, period_s);
  const double dram_energy =
      w.mem_bytes * p.dram_energy_nj_per_byte * 1e-9 + p.dram_static_w * period_s;
  return cpu_energy + p.pkg_base_w * period_s + dram_energy;
}

void GpuOnlineModels::update(const GpuWorkloadState& w_before, const gpu::GpuConfig& c,
                             double period_s, const gpu::FrameResult& observed) {
  UpdateScratch scratch;
  update(w_before, c, period_s, observed, scratch);
}

void GpuOnlineModels::update(const GpuWorkloadState& w_before, const gpu::GpuConfig& c,
                             double period_s, const gpu::FrameResult& observed,
                             UpdateScratch& scratch) {
  time_features_into(w_before, c, scratch.phi);
  time_model_.update(scratch.phi, observed.frame_time_s, scratch.rls);
  energy_features_into(w_before, c, period_s, scratch.phi);
  energy_model_.update(scratch.phi, observed.gpu_energy_j, scratch.rls);
}

StaffFrameTimePredictor::StaffFrameTimePredictor(const gpu::GpuPlatform& platform,
                                                 ml::StaffConfig cfg)
    : platform_(&platform), staff_(8, cfg) {}

common::Vec StaffFrameTimePredictor::features(const GpuWorkloadState& w,
                                              const gpu::GpuConfig& c) const {
  const double f = platform_->freq_mhz(c.freq_idx) * 1e6;
  const double n = static_cast<double>(c.num_slices);
  const double eff = n / (1.0 + platform_->params().slice_sync_overhead * (n - 1.0));
  return {w.work_cycles / (f * eff),       // the physical time term
          w.mem_bytes * 1e-9,              // exposed memory time
          1.0,                             // bias
          w.work_cycles * 1e-9,            // weak (frequency-blind) proxy
          1e9 / f,                         // period of one cycle — redundant
          w.cpu_cycles * 1e-9,             // irrelevant for GPU frame time
          n / 4.0,                         // raw slice count — redundant
          w.mem_bytes / (w.work_cycles + 1.0)};  // intensity ratio — weak
}

double StaffFrameTimePredictor::predict_ms(const GpuWorkloadState& w,
                                           const gpu::GpuConfig& c) const {
  return std::max(staff_.predict(features(w, c)), 1e-4) * 1e3;
}

double StaffFrameTimePredictor::update(const GpuWorkloadState& w, const gpu::GpuConfig& c,
                                       const gpu::FrameResult& observed) {
  const double err = staff_.update(features(w, c), observed.frame_time_s);
  return std::abs(err) / std::max(observed.frame_time_s, 1e-9);
}

}  // namespace oal::core
