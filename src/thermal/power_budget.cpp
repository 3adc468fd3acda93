#include "thermal/power_budget.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace oal::thermal {

PowerBudgeter::PowerBudgeter(const RcThermalNetwork& net, LeakageModel leak, PowerBudgetConfig cfg)
    : leak_(std::move(leak)), cfg_(cfg), sim_(net) {
  const std::size_t n = net.num_nodes();
  if (leak_.p0_w.size() != n || leak_.k_per_c.size() != n)
    throw std::invalid_argument("PowerBudgeter: leakage size mismatch");
  dyn_.assign(n, 0.0);
  fp_temp_.assign(n, 0.0);
  p_leak_.assign(n, 0.0);
  total_.assign(n, 0.0);
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

PowerBudgetResult PowerBudgeter::max_sustainable_power(const common::Vec& shape_w) {
  if (shape_w.size() != sim_.num_nodes())
    throw std::invalid_argument("max_sustainable_power: shape size mismatch");
  double total_shape = 0.0;
  for (double v : shape_w) total_shape += v;
  if (total_shape <= 0.0) throw std::invalid_argument("max_sustainable_power: zero shape");
  if (!steady_) steady_.emplace(sim_, leak_);

  // Bisection on the scale.
  double lo = 0.0, hi = 1.0;
  while (steady_violation(shape_w, hi, nullptr) < 0.0 && hi < 1e4) hi *= 2.0;
  for (int it = 0; it < 60; ++it) {
    const double mid = 0.5 * (lo + hi);
    if (steady_violation(shape_w, mid, nullptr) < 0.0)
      lo = mid;
    else
      hi = mid;
  }
  PowerBudgetResult res;
  res.scale = lo;
  res.total_power_w = lo * total_shape;
  (void)steady_violation(shape_w, hi, &res.binding_node);
  res.skin_bound = res.binding_node == cfg_.skin_node;
  return res;
}

// oal-lint: hot-path
/// Whether constant power s * shape_w (plus leakage refreshed from the
/// evolving temperatures every 1 s tick) crosses a limit within the horizon.
bool PowerBudgeter::transient_violates(const common::Vec& start_temp_c,
                                       const common::Vec& shape_w, double s, double horizon_s) {
  sim_.set_temperatures(start_temp_c);
  double t = 0.0;
  while (t < horizon_s) {
    const double dt = std::min(1.0, horizon_s - t);
    leak_.leakage_into(sim_.temperatures(), p_leak_);
    for (std::size_t i = 0; i < total_.size(); ++i) total_[i] = s * shape_w[i] + p_leak_[i];
    sim_.step(total_, dt);
    for (std::size_t i = 0; i < sim_.temperatures().size(); ++i)
      if (sim_.temperatures()[i] > node_limit(i)) return true;
    t += dt;
  }
  return false;
}

double PowerBudgeter::transient_power_headroom(const common::Vec& start_temp_c,
                                               const common::Vec& shape_w, double horizon_s) {
  if (horizon_s <= 0.0) throw std::invalid_argument("transient_power_headroom: bad horizon");
  if (shape_w.size() != sim_.num_nodes() || start_temp_c.size() != sim_.num_nodes())
    throw std::invalid_argument("transient_power_headroom: size mismatch");
  double lo = 0.0, hi = 1.0;
  while (!transient_violates(start_temp_c, shape_w, hi, horizon_s) && hi < 1e4) hi *= 2.0;
  for (int it = 0; it < 40; ++it) {
    const double mid = 0.5 * (lo + hi);
    (transient_violates(start_temp_c, shape_w, mid, horizon_s) ? hi : lo) = mid;
  }
  return lo;
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
