#include "thermal/power_budget.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "thermal/bisection.h"

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
  pred_temp_.assign(n, 0.0);
  pred_lanes_.assign(8 * n, 0.0);
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

/// The steady-state budget's predicted scale.  The fixed point is affine in
/// the power scale, T(s) = T(0) + s (T(1) - T(0)), so node i starts to
/// violate at (limit_i - T_i(0)) / (T_i(1) - T_i(0)) when it heats with the
/// scale; the prediction is the smallest such scale, 0 when a node already
/// violates at s = 0 (or every scale violates, under runaway) and +inf when
/// no node heats.
double PowerBudgeter::steady_prediction(const common::Vec& shape_w) {
  ++probe_passes_;
  if (!steady_->exists()) return 0.0;
  std::fill(dyn_.begin(), dyn_.end(), 0.0);
  steady_->temperatures_into(dyn_, fp_temp_);
  steady_->temperatures_into(shape_w, pred_temp_);
  double predicted = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < fp_temp_.size(); ++i) {
    if (fp_temp_[i] >= limit_c_[i]) return 0.0;
    const double rise = pred_temp_[i] - fp_temp_[i];
    if (rise > 0.0) predicted = std::min(predicted, (limit_c_[i] - fp_temp_[i]) / rise);
  }
  return predicted;
}

/// The transient budget's predicted scale: one two-lane scalar simulation at
/// s = 0 and s = 1 on rc_probe's tick, substep and leakage schedule.  With
/// leakage linear in the temperature (while it stays positive) and
/// refreshed once per tick, every tick's temperatures are affine in the
/// scale, so node i violates after a tick once s exceeds (limit_i - T_i(0))
/// / (T_i(1) - T_i(0)) there; the prediction is the smallest such scale over
/// ticks and nodes, 0 once the s = 0 lane crosses a limit, +inf when no
/// node ever heats with the scale.  Lane state is interleaved node-major,
/// [2 i] at s = 0 and [2 i + 1] at s = 1.
double PowerBudgeter::transient_prediction(const common::Vec& start_temp_c,
                                           const common::Vec& shape_w, double horizon_s) {
  ++probe_passes_;
  const std::size_t n = net_.num_nodes();
  const double* g = net_.conductance().raw();
  const double* cap = net_.capacitances().data();
  const double ambient = net_.ambient_c();
  double* temp = pred_lanes_.data();
  double* power = temp + 2 * n;
  double* rise = power + 2 * n;
  double* dtemp = rise + 2 * n;
  for (std::size_t i = 0; i < n; ++i) temp[2 * i] = temp[2 * i + 1] = start_temp_c[i];
  double predicted = std::numeric_limits<double>::infinity();
  double t = 0.0;
  while (t < horizon_s) {
    const double dt = std::min(1.0, horizon_s - t);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t l = 0; l < 2; ++l) {
        const double leak =
            leak_.p0_w[i] * (1.0 + leak_.k_per_c[i] * (temp[2 * i + l] - leak_.t0_c));
        power[2 * i + l] = (l == 0 ? 0.0 : shape_w[i]) + std::max(leak, 0.0);
      }
    const int substeps = std::max(1, static_cast<int>(std::ceil(dt / net_.max_substep_s())));
    const double h = dt / substeps;
    for (int sub = 0; sub < substeps; ++sub) {
      for (std::size_t j = 0; j < 2 * n; ++j) rise[j] = temp[j] - ambient;
      for (std::size_t i = 0; i < n; ++i) {
        double flow0 = power[2 * i], flow1 = power[2 * i + 1];
        for (std::size_t j = 0; j < n; ++j) {
          flow0 -= g[i * n + j] * rise[2 * j];
          flow1 -= g[i * n + j] * rise[2 * j + 1];
        }
        dtemp[2 * i] = flow0 / cap[i];
        dtemp[2 * i + 1] = flow1 / cap[i];
      }
      for (std::size_t j = 0; j < 2 * n; ++j) temp[j] += h * dtemp[j];
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (temp[2 * i] > limit_c_[i]) return 0.0;
      const double heat = temp[2 * i + 1] - temp[2 * i];
      if (heat > 0.0) predicted = std::min(predicted, (limit_c_[i] - temp[2 * i]) / heat);
    }
    t += dt;
  }
  return predicted;
}
// oal-lint: hot-path-end

namespace {

void check_finite(const common::Vec& v, const char* what) {
  for (double x : v)
    if (!std::isfinite(x)) throw std::invalid_argument(what);
}

}  // namespace

PowerBudgetResult PowerBudgeter::max_sustainable_power(const common::Vec& shape_w) {
  return max_sustainable_power(shape_w, common::kernels::active());
}

/// predicted_bisection over 60 iterations, where violates(s) is
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

  const double predicted = steady_prediction(shape_w);
  Bracket b;
  if (steady_->exists()) {
    const common::kernels::SteadyProbe probe =
        steady_->probe_operands(limit_c_.data(), shape_w.data(), lanes_.data());
    b = predicted_bisection<60>(
        [&](const double* scale) {
          ++probe_passes_;
          return kernels.steady_probe(probe, scale);
        },
        predicted);
  } else {
    // Runaway: every scale violates, as steady_violation reports.
    b = predicted_bisection<60>(
        [&](const double*) {
          ++probe_passes_;
          return (1u << common::kernels::kProbeLanes) - 1u;
        },
        predicted);
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
/// predicted_bisection over 40 iterations, where violates(s) simulates
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
  const double predicted = transient_prediction(start_temp_c, shape_w, horizon_s);
  return predicted_bisection<40>(
             [&](const double* scale) {
               ++probe_passes_;
               return kernels.rc_probe(probe, scale);
             },
             predicted)
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
