// The search both thermal budgets run (thermal/power_budget.cpp): the
// largest power scale that keeps a thermal model inside its limits, found by
// the sequential loop
//   lo = 0, hi = 1;
//   while (!violates(hi) && hi < 1e4) hi *= 2;
//   kIterations times: mid = 0.5 * (lo + hi); (violates(mid) ? hi : lo) = mid;
// run through a probe that answers common::kernels::kProbeLanes scales per
// pass.  predicted_bisection fills the lanes with scales the sequential loop
// would probe next and keeps only outcomes that loop would see, so it returns
// the loop's bracket bit for bit, whatever the probe answers and whatever
// the prediction is: neither has to be monotone, finite or right.  The probe
// only has to answer the same for the same scale.
//
// Once a midpoint equals lo or hi, the bracket has reached double resolution
// and the step that probes it is the last that can move it: every later step
// probes that same scale and sets the same end to it again (a non-violating
// hi becomes lo and stays so).  The search stops after that step.
#pragma once

#include <cstddef>

#include "common/kernels.h"

namespace oal::thermal {

/// The final bracket of a budget search; lo is the budget's scale.
struct Bracket {
  double lo, hi;
};

// oal-lint: hot-path
/// The sequential loop above, where probe(scale) evaluates kProbeLanes
/// scales at once and returns their violation mask (bit l for scale[l]), and
/// `predicted` is a guess at the scale where probes start to violate.
///
/// Doubling: lane l tries hi * 2^l; the first lane that violates or reaches
/// the cap ends the phase with hi at its scale.
///
/// Bisection, first along the predicted path: lane l bisects the bracket the
/// lanes before it leave if each violates exactly when its midpoint exceeds
/// `predicted`.  Outcomes are consumed in lane order, up to and including
/// the first lane whose outcome differs from its prediction: that lane's
/// bracket is still the sequential one, the later lanes' are not.  From
/// then on every pass is a 2-level tree: lane 0 bisects [lo, hi], lanes 1
/// and 2 the brackets it leaves when it violates and when it does not, and
/// lane 3 repeats lane 0, so it never lengthens the pass.  A right
/// prediction costs ceil(kIterations / 4) bisection passes, and a wrong one
/// at most one pass more than the tree alone, ceil(kIterations / 2); a
/// bracket that reaches double resolution sooner ends the search with it.
template <int kIterations, class Probe>
Bracket predicted_bisection(const Probe& probe, double predicted) {
  constexpr std::size_t kLanes = common::kernels::kProbeLanes;
  static_assert(kLanes == 4, "the tree fills three lanes and repeats lane 0 in the fourth");
  double scale[kLanes] = {};

  double hi = 1.0;
  for (;;) {
    scale[0] = hi;
    for (std::size_t l = 1; l < kLanes; ++l) scale[l] = 2.0 * scale[l - 1];
    const unsigned violated = probe(scale);
    std::size_t l = 0;
    while (l < kLanes && (violated >> l & 1u) == 0 && scale[l] < 1e4) ++l;
    if (l < kLanes) {
      hi = scale[l];
      break;
    }
    hi = 2.0 * scale[kLanes - 1];
  }

  double lo = 0.0;
  int it = 0;
  // Applies one step's outcome and returns the next step's count, or
  // kIterations once the step's midpoint was lo or hi (see the top).
  const auto settle = [&lo, &hi, &it](double mid, bool violates) {
    const bool last = mid == lo || mid == hi;
    (violates ? hi : lo) = mid;
    return last ? kIterations : it + 1;
  };
  for (bool on_path = true; on_path && it < kIterations;) {
    bool guess[kLanes];
    double path_lo = lo, path_hi = hi;
    for (std::size_t l = 0; l < kLanes; ++l) {
      scale[l] = 0.5 * (path_lo + path_hi);
      guess[l] = scale[l] > predicted;
      (guess[l] ? path_hi : path_lo) = scale[l];
    }
    const unsigned violated = probe(scale);
    for (std::size_t l = 0; on_path && l < kLanes && it < kIterations; ++l) {
      const bool v = (violated >> l & 1u) != 0;
      it = settle(scale[l], v);
      on_path = v == guess[l];
    }
  }

  while (it < kIterations) {
    const double mid = 0.5 * (lo + hi);
    scale[0] = scale[3] = mid;
    scale[1] = 0.5 * (lo + mid);
    scale[2] = 0.5 * (mid + hi);
    const unsigned violated = probe(scale);
    const std::size_t next = (violated & 1u) != 0 ? 1 : 2;
    it = settle(mid, (violated & 1u) != 0);
    if (it < kIterations) it = settle(scale[next], (violated >> next & 1u) != 0);
  }
  return {lo, hi};
}
// oal-lint: hot-path-end

}  // namespace oal::thermal
