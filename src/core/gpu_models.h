// Online GPU frame-time and energy models (paper Sections III-B, IV-B).
//
// Frame time on the slice-gated GPU obeys
//     t = work / (f * eff(n)) + theta_mem * mem_bytes
// which is linear in unknowns given the observable work proxy, so an RLS (or
// STAFF) estimator tracks it online across DVFS/slice changes — this is the
// Fig. 2 predictor.  Per-period energy at scope s is likewise linear in
// switched-capacitance/leakage features once busy time is predicted, giving
// the NMPC its predictive energy models.  Sensitivities (the derivative of
// predicted time/energy w.r.t. frequency) fall out of the same models in
// closed form — the "predictive sensitivity models" of the ENMPC technique.
#pragma once

#include "common/matrix.h"
#include "gpu/gpu_model.h"
#include "ml/rls.h"
#include "ml/staff.h"

namespace oal::core {

/// Workload observables carried between frames (content predictor state).
struct GpuWorkloadState {
  double work_cycles = 5e6;  ///< EWMA of slice-normalized render work
  double mem_bytes = 5e6;    ///< EWMA of frame memory traffic
  double cpu_cycles = 2e6;   ///< EWMA of producer-side work

  void observe(const gpu::FrameResult& r, double slice_eff, double alpha = 0.6);
};

class GpuOnlineModels {
 public:
  explicit GpuOnlineModels(const gpu::GpuPlatform& platform);

  /// Multi-slice efficiency used to normalize observed busy cycles.
  double slice_eff(int n) const;

  /// Predicted frame time for a candidate configuration.
  double predict_frame_time_s(const GpuWorkloadState& w, const gpu::GpuConfig& c) const;
  /// d(frame time)/d(frequency in GHz): the DVFS sensitivity model.
  double frame_time_freq_sensitivity(const GpuWorkloadState& w, const gpu::GpuConfig& c) const;
  /// Predicted GPU-scope energy over one deadline period.
  double predict_gpu_energy_j(const GpuWorkloadState& w, const gpu::GpuConfig& c,
                              double period_s) const;
  /// Producer-side (PKG+DRAM minus GPU scope) energy over one period, from
  /// the platform's deterministic power parameters and the workload state:
  /// CPU frame work, package base rail, DRAM traffic + static power.  This
  /// is config-independent, so it is the additive term that lifts the
  /// learned GPU-energy prediction to the PKG+DRAM scope the thermal
  /// budgeter arbitrates on.  Design-time prior only — at runtime the NMPC
  /// controllers anchor it to the measured per-frame producer energy.
  double producer_energy_prior_j(const GpuWorkloadState& w, double period_s) const;

  /// Reusable buffers for the allocation-free update overload: the feature
  /// basis plus the RLS temporaries, shared by both refits (phi and the RLS
  /// buffers grow to the energy-model dim on first use, then stop
  /// allocating).
  struct UpdateScratch {
    common::Vec phi;                        ///< feature basis (time, then energy)
    ml::RecursiveLeastSquares::Scratch rls; ///< K / Px temporaries
  };

  /// Adapt both models from an executed frame.
  void update(const GpuWorkloadState& w_before, const gpu::GpuConfig& c, double period_s,
              const gpu::FrameResult& observed);

  /// Allocation-free update: identical arithmetic (bitwise) to the by-value
  /// form, with every temporary parked in `scratch` — this makes the full
  /// per-frame NMPC/online-IL *step* (decide + refit) steady-state
  /// allocation-free, not just the decide half.
  void update(const GpuWorkloadState& w_before, const gpu::GpuConfig& c, double period_s,
              const gpu::FrameResult& observed, UpdateScratch& scratch);

  std::size_t updates() const { return time_model_.updates(); }

  /// Scratch overloads: identical arithmetic, the feature basis built into
  /// the caller-owned phi buffer.  The NMPC candidate loops call these many
  /// times per decision and reuse one buffer throughout.
  double predict_frame_time_s(const GpuWorkloadState& w, const gpu::GpuConfig& c,
                              common::Vec& phi) const;
  double predict_gpu_energy_j(const GpuWorkloadState& w, const gpu::GpuConfig& c, double period_s,
                              common::Vec& phi) const;

 private:
  /// The models' feature maps, written into `phi` (cleared, then filled).
  void time_features_into(const GpuWorkloadState& w, const gpu::GpuConfig& c,
                          common::Vec& phi) const;
  void energy_features_into(const GpuWorkloadState& w, const gpu::GpuConfig& c, double period_s,
                            common::Vec& phi) const;

  const gpu::GpuPlatform* platform_;
  ml::RecursiveLeastSquares time_model_;    // target: frame time (s)
  ml::RecursiveLeastSquares energy_model_;  // target: GPU energy per period (J)
};

/// Standalone STAFF-based frame-time predictor used by the Fig. 2 experiment:
/// same physics features plus deliberately irrelevant inputs, demonstrating
/// the adaptive forgetting factor and online feature selection.
class StaffFrameTimePredictor {
 public:
  explicit StaffFrameTimePredictor(const gpu::GpuPlatform& platform, ml::StaffConfig cfg = {});

  double predict_ms(const GpuWorkloadState& w, const gpu::GpuConfig& c) const;
  /// Returns the a-priori relative error of this update.
  double update(const GpuWorkloadState& w, const gpu::GpuConfig& c,
                const gpu::FrameResult& observed);
  const ml::StaffModel& model() const { return staff_; }

 private:
  common::Vec features(const GpuWorkloadState& w, const gpu::GpuConfig& c) const;
  const gpu::GpuPlatform* platform_;
  ml::StaffModel staff_;
};

}  // namespace oal::core
