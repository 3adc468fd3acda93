#include "thermal/power_budget.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

namespace oal::thermal {

PowerBudgeter::PowerBudgeter(const RcThermalNetwork& net, LeakageModel leak, PowerBudgetConfig cfg)
    : leak_(std::move(leak)), cfg_(cfg), net_(net) {
  const std::size_t n = net.num_nodes();
  if (leak_.p0_w.size() != n || leak_.k_per_c.size() != n)
    throw std::invalid_argument("PowerBudgeter: leakage size mismatch");
  dyn_.assign(n, 0.0);
  fp_temp_.assign(n, 0.0);
  limit_c_.resize(n);
  for (std::size_t i = 0; i < n; ++i) limit_c_[i] = node_limit(i);
  lanes_.assign(4 * n * common::kernels::kProbeLanes, 0.0);
}

double PowerBudgeter::node_limit(std::size_t node) const {
  return node == cfg_.skin_node ? cfg_.t_max_skin_c : cfg_.t_max_junction_c;
}

// oal-lint: hot-path
/// Max steady-state temperature violation margin at power scale s (deg C;
/// positive = violates).
double PowerBudgeter::steady_violation(const common::Vec& shape_w, double s,
                                       std::size_t* worst_node) {
  if (!steady_->exists()) return 1e9;  // runaway: treat as infinite violation
  for (std::size_t i = 0; i < dyn_.size(); ++i) dyn_[i] = s * shape_w[i];
  steady_->temperatures_into(dyn_, fp_temp_);
  double worst = -1e9;
  for (std::size_t i = 0; i < fp_temp_.size(); ++i) {
    const double v = fp_temp_[i] - node_limit(i);
    if (v > worst) {
      worst = v;
      if (worst_node != nullptr) *worst_node = i;
    }
  }
  return worst;
}
// oal-lint: hot-path-end

namespace {

void check_finite(const common::Vec& v, const char* what) {
  for (double x : v)
    if (!std::isfinite(x)) throw std::invalid_argument(what);
}

/// The final bracket of a budget search; lo is the budget's scale.
struct Bracket {
  double lo, hi;
};

// oal-lint: hot-path
/// The sequential search both budgets reproduce, one probe at a time:
///   lo = 0, hi = 1;
///   while (!violates(hi) && hi < 1e4) hi *= 2;
///   kIterations times: mid = 0.5 * (lo + hi); (violates(mid) ? hi : lo) = mid;
/// run speculatively: probe(scale) evaluates kProbeLanes scales at once and
/// returns their violation mask, bit l for scale[l].
template <int kIterations, class Probe>
Bracket speculative_bisection(const Probe& probe) {
  constexpr std::size_t kLanes = common::kernels::kProbeLanes;
  static_assert(kLanes == 4 && kIterations % 2 == 0,
                "each probe covers two whole bisection iterations in four lanes");
  double scale[kLanes] = {};

  // Doubling: lane l tries hi * 2^l; the first lane that violates or
  // reaches the cap ends the phase with hi at its scale.
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

  // Bisection, two iterations per probe.  Lane 0 bisects [lo, hi]; lane 1
  // bisects [lo, mid], the bracket lane 0 leaves when it violates, and
  // lane 2 bisects [mid, hi], the one it leaves when it does not.  Lane 3
  // repeats lane 0, so it never lengthens the pass.
  double lo = 0.0;
  for (int it = 0; it < kIterations; it += 2) {
    const double mid = 0.5 * (lo + hi);
    scale[0] = mid;
    scale[1] = 0.5 * (lo + mid);
    scale[2] = 0.5 * (mid + hi);
    scale[3] = mid;
    const unsigned violated = probe(scale);
    const std::size_t next = (violated & 1u) != 0 ? 1 : 2;
    ((violated & 1u) != 0 ? hi : lo) = mid;
    ((violated >> next & 1u) != 0 ? hi : lo) = scale[next];
  }
  return {lo, hi};
}
// oal-lint: hot-path-end

}  // namespace

PowerBudgetResult PowerBudgeter::max_sustainable_power(const common::Vec& shape_w) {
  return max_sustainable_power(shape_w, common::kernels::active());
}

/// speculative_bisection over 60 iterations, where violates(s) is
/// steady_violation(shape_w, s) >= 0; the binding node is the worst node at
/// the final hi.
PowerBudgetResult PowerBudgeter::max_sustainable_power(
    const common::Vec& shape_w, const common::kernels::KernelTable& kernels) {
  if (shape_w.size() != net_.num_nodes())
    throw std::invalid_argument("max_sustainable_power: shape size mismatch");
  check_finite(shape_w, "max_sustainable_power: non-finite shape");
  double total_shape = 0.0;
  for (double v : shape_w) total_shape += v;
  if (total_shape <= 0.0) throw std::invalid_argument("max_sustainable_power: zero shape");
  if (!steady_) steady_.emplace(net_, leak_);

  Bracket b;
  if (steady_->exists()) {
    const common::kernels::SteadyProbe probe =
        steady_->probe_operands(limit_c_.data(), shape_w.data(), lanes_.data());
    b = speculative_bisection<60>(
        [&](const double* scale) { return kernels.steady_probe(probe, scale); });
  } else {
    // Runaway: every scale violates, as steady_violation reports.
    b = speculative_bisection<60>(
        [](const double*) { return (1u << common::kernels::kProbeLanes) - 1u; });
  }
  PowerBudgetResult res;
  res.scale = b.lo;
  res.total_power_w = b.lo * total_shape;
  (void)steady_violation(shape_w, b.hi, &res.binding_node);
  res.skin_bound = res.binding_node == cfg_.skin_node;
  return res;
}

double PowerBudgeter::transient_power_headroom(const common::Vec& start_temp_c,
                                               const common::Vec& shape_w, double horizon_s) {
  return transient_power_headroom(start_temp_c, shape_w, horizon_s, common::kernels::active());
}

// oal-lint: hot-path
/// speculative_bisection over 40 iterations, where violates(s) simulates
/// constant power s * shape (plus leakage refreshed every 1 s tick) over the
/// horizon and reports whether any node crosses its limit.
double PowerBudgeter::transient_power_headroom(const common::Vec& start_temp_c,
                                               const common::Vec& shape_w, double horizon_s,
                                               const common::kernels::KernelTable& kernels) {
  const std::size_t n = net_.num_nodes();
  if (!(horizon_s > 0.0 && horizon_s <= 0x1p53))
    throw std::invalid_argument("transient_power_headroom: horizon must be in (0, 2^53] s");
  // rc_probe casts ceil(dt / max_substep) to int for dt <= 1 s.
  if (!(std::ceil(1.0 / net_.max_substep_s()) <= std::numeric_limits<int>::max()))
    throw std::invalid_argument(
        "transient_power_headroom: a 1 s tick needs more substeps than an int holds");
  if (shape_w.size() != n || start_temp_c.size() != n)
    throw std::invalid_argument("transient_power_headroom: size mismatch");
  check_finite(start_temp_c, "transient_power_headroom: non-finite start temperature");
  check_finite(shape_w, "transient_power_headroom: non-finite shape");

  const common::kernels::RcProbe probe{n,
                                       net_.conductance().raw(),
                                       net_.capacitances().data(),
                                       net_.ambient_c(),
                                       leak_.p0_w.data(),
                                       leak_.k_per_c.data(),
                                       leak_.t0_c,
                                       limit_c_.data(),
                                       start_temp_c.data(),
                                       shape_w.data(),
                                       horizon_s,
                                       net_.max_substep_s(),
                                       lanes_.data()};
  return speculative_bisection<40>(
             [&](const double* scale) { return kernels.rc_probe(probe, scale); })
      .lo;
}
// oal-lint: hot-path-end

PowerBudgetResult max_sustainable_power(const RcThermalNetwork& net, const LeakageModel& leak,
                                        const common::Vec& shape_w, const PowerBudgetConfig& cfg) {
  return PowerBudgeter(net, leak, cfg).max_sustainable_power(shape_w);
}

double transient_power_headroom(const RcThermalNetwork& net, const LeakageModel& leak,
                                const common::Vec& shape_w, double horizon_s,
                                const PowerBudgetConfig& cfg) {
  return PowerBudgeter(net, leak, cfg).transient_power_headroom(net.temperatures(), shape_w,
                                                                horizon_s);
}

}  // namespace oal::thermal
