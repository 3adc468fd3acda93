// Feature standardization.
//
// All learned models in this project (policies, SVR, MLPs) operate on
// standardized features; the scaler can be fit offline and then updated
// online so the feature distribution tracks workload drift.
#pragma once

#include <cstddef>
#include <vector>

#include "common/matrix.h"

namespace oal::ml {

/// Per-feature (x - mean) / std standardizer.
class StandardScaler {
 public:
  /// Batch fit from rows of samples.
  void fit(const std::vector<common::Vec>& samples);

  /// Online (streaming) update of mean/variance via Welford's algorithm.
  void partial_fit(const common::Vec& x);

  /// transform_into with throwaway buffers.
  common::Vec transform(const common::Vec& x) const;

  /// Caller-owned cache of the derived stds for the allocation-free path.
  /// `count` stamps the fit the stds were computed from; transform_into
  /// recomputes them only when the scaler has been (re)fit since — a
  /// policy-update event, never the steady-state decide path.
  struct TransformCache {
    common::Vec stds;
    std::size_t count = static_cast<std::size_t>(-1);
  };
  /// Allocation-free transform (once `z`/`cache` have their capacity).
  void transform_into(const common::Vec& x, common::Vec& z, TransformCache& cache) const;

  std::size_t dim() const { return mean_.size(); }
  bool fitted() const { return count_ > 0; }
  const common::Vec& mean() const { return mean_; }
  /// Standard deviations.  Constant features get scale 1.0 — as in
  /// sklearn's StandardScaler — so a feature that happens to be constant in
  /// the training set (e.g. the neutral thermal telemetry of offline
  /// profiling) is centered but never amplified: dividing by a ~0 std would
  /// launch any runtime deviation to ~1e9 and saturate the network.
  /// Near-constant features are floored at kMinScale, bounding the
  /// amplification of a runtime deviation at 1/kMinScale instead of the
  /// cliff a tiny true std would open.
  common::Vec stds() const;

  /// Appends {dim, count, mean, m2} to `out` — enough to reconstruct the
  /// scaler exactly (transform() of the restored scaler is bitwise identical).
  void export_state(std::vector<double>& out) const;
  /// Restores what export_state wrote; false (scaler unchanged) on underrun,
  /// a dimension or count that is not a finite non-negative integer, or a
  /// non-finite mean/m2 entry.
  bool import_state(const std::vector<double>& in, std::size_t& pos);

 private:
  common::Vec mean_;
  common::Vec m2_;
  std::size_t count_ = 0;
  static constexpr double kConstantVariance = 1e-12;  ///< below this: scale 1.0
  static constexpr double kMinScale = 1e-2;           ///< floor for tiny true stds
};

}  // namespace oal::ml
