// Tests for the thermal substrate: RC network physics, fixed-point analysis,
// skin estimation, sensor selection and power budgeting.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/kernels.h"
#include "common/rng.h"
#include "common/stats.h"
#include "gpu/gpu_model.h"
#include "soc/platform.h"
#include "soc/thermal_platform.h"
#include "thermal/bisection.h"
#include "thermal/fixed_point.h"
#include "thermal/power_budget.h"
#include "thermal/rc_network.h"
#include "thermal/skin_estimator.h"

namespace oal::thermal {
namespace {

LeakageModel default_leak() {
  LeakageModel l;
  l.p0_w = {0.35, 0.08, 0.25, 0.0, 0.0};
  l.k_per_c = {0.025, 0.02, 0.025, 0.0, 0.0};
  l.t0_c = 25.0;
  return l;
}

TEST(RcNetwork, StartsAtAmbient) {
  auto net = RcThermalNetwork::mobile_soc(25.0);
  for (double t : net.temperatures()) EXPECT_DOUBLE_EQ(t, 25.0);
  EXPECT_EQ(net.num_nodes(), 5u);
}

TEST(RcNetwork, HeatsUnderPowerAndCoolsWithoutIt) {
  auto net = RcThermalNetwork::mobile_soc();
  net.step({3.0, 0.5, 1.0, 0.0, 0.0}, 180.0);
  const double hot = net.temperatures()[0];
  EXPECT_GT(hot, 30.0);
  net.step({0.0, 0.0, 0.0, 0.0, 0.0}, 1500.0);
  EXPECT_LT(net.temperatures()[0], hot);
  EXPECT_NEAR(net.temperatures()[0], 25.0, 2.0);  // cooled nearly to ambient
}

TEST(RcNetwork, ConvergesToSteadyState) {
  auto net = RcThermalNetwork::mobile_soc();
  const common::Vec p{2.0, 0.4, 1.2, 0.0, 0.0};
  const common::Vec ss = net.steady_state(p);
  net.step(p, 5000.0);
  for (std::size_t i = 0; i < ss.size(); ++i) EXPECT_NEAR(net.temperatures()[i], ss[i], 0.3);
}

TEST(RcNetwork, SteadyStateSuperposition) {
  // Linear system: steady state of a+b equals sum of responses above ambient.
  auto net = RcThermalNetwork::mobile_soc();
  const common::Vec pa{1.0, 0.0, 0.0, 0.0, 0.0};
  const common::Vec pb{0.0, 0.0, 2.0, 0.0, 0.0};
  common::Vec pab(5);
  for (int i = 0; i < 5; ++i) pab[i] = pa[i] + pb[i];
  const auto ta = net.steady_state(pa);
  const auto tb = net.steady_state(pb);
  const auto tab = net.steady_state(pab);
  for (std::size_t i = 0; i < 5; ++i)
    EXPECT_NEAR(tab[i] - net.ambient_c(), (ta[i] - 25.0) + (tb[i] - 25.0), 1e-9);
}

TEST(RcNetwork, HeatSpreadsToNeighbors) {
  auto net = RcThermalNetwork::mobile_soc();
  net.step({4.0, 0.0, 0.0, 0.0, 0.0}, 60.0);
  // Heating only the big cluster must raise every node above ambient, with
  // the big cluster hottest and the skin slowest/coolest.
  const auto& t = net.temperatures();
  for (double v : t) EXPECT_GT(v, 25.0);
  EXPECT_GT(t[0], t[1]);
  EXPECT_GT(t[0], t[4]);
}

TEST(RcNetwork, SystemMatrixIsStable) {
  auto net = RcThermalNetwork::mobile_soc();
  const auto ev = common::eigenvalues(net.system_matrix());
  for (double re : ev.real) EXPECT_LT(re, 0.0);  // all modes decay
}

TEST(RcNetwork, InvalidInputsThrow) {
  auto net = RcThermalNetwork::mobile_soc();
  EXPECT_THROW(net.step({1.0}, 1.0), std::invalid_argument);
  EXPECT_THROW(net.step(common::Vec(5, 0.0), -1.0), std::invalid_argument);
  EXPECT_THROW(RcThermalNetwork({}, {}), std::invalid_argument);
  // NaN, infinite, or so long its substep count would overflow an int.
  for (double dt : {std::numeric_limits<double>::quiet_NaN(),
                    std::numeric_limits<double>::infinity(), 1e300})
    EXPECT_THROW(net.step(common::Vec(5, 0.0), dt), std::invalid_argument) << dt;
  EXPECT_EQ(net.temperatures(), common::Vec(5, net.ambient_c()));
}

TEST(FixedPoint, ExistsAtModerateLeakage) {
  auto net = RcThermalNetwork::mobile_soc();
  const auto fp = thermal_fixed_point(net, default_leak(), {2.0, 0.4, 1.0, 0.0, 0.0});
  EXPECT_TRUE(fp.exists);
  EXPECT_LT(fp.loop_gain, 1.0);
  EXPECT_GT(fp.temperature_c[0], 25.0);
  // Fixed point is self-consistent: steady state of total power returns it.
  const auto check = net.steady_state(fp.total_power_w);
  for (std::size_t i = 0; i < check.size(); ++i) EXPECT_NEAR(check[i], fp.temperature_c[i], 1e-6);
}

TEST(FixedPoint, RunawayDetectedAtHighLeakage) {
  auto net = RcThermalNetwork::mobile_soc();
  LeakageModel hot = default_leak();
  hot.p0_w = {3.5, 0.8, 2.5, 0.0, 0.0};
  hot.k_per_c = {0.12, 0.1, 0.12, 0.0, 0.0};
  const auto fp = thermal_fixed_point(net, hot, {3.0, 0.8, 2.0, 0.0, 0.0});
  EXPECT_FALSE(fp.exists);
  EXPECT_GE(fp.loop_gain, 1.0);
}

TEST(FixedPoint, IterationConvergesToClosedForm) {
  auto net = RcThermalNetwork::mobile_soc();
  const common::Vec dyn{2.5, 0.5, 1.5, 0.0, 0.0};
  const auto fp = thermal_fixed_point(net, default_leak(), dyn);
  const auto traj = fixed_point_iteration(net, default_leak(), dyn);
  ASSERT_TRUE(fp.exists);
  ASSERT_GE(traj.size(), 2u);
  const auto& last = traj.back();
  for (std::size_t i = 0; i < last.size(); ++i) EXPECT_NEAR(last[i], fp.temperature_c[i], 1e-3);
}

TEST(FixedPoint, MorePowerMeansHotterFixedPoint) {
  auto net = RcThermalNetwork::mobile_soc();
  const auto lo = thermal_fixed_point(net, default_leak(), {1.0, 0.2, 0.5, 0.0, 0.0});
  const auto hi = thermal_fixed_point(net, default_leak(), {3.0, 0.6, 2.0, 0.0, 0.0});
  ASSERT_TRUE(lo.exists && hi.exists);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_GT(hi.temperature_c[i], lo.temperature_c[i]);
}

TEST(SkinEstimator, RecoversSkinFromInternalSensors) {
  auto net = RcThermalNetwork::mobile_soc();
  SensorArray sensors({0, 1, 2, 3}, 0.15, 33);
  common::Rng rng(3);
  std::vector<common::Vec> readings;
  std::vector<double> skin;
  common::Vec p(5, 0.0);
  for (int i = 0; i < 600; ++i) {
    if (i % 50 == 0)
      p = {rng.uniform(0.2, 4.0), rng.uniform(0.1, 1.0), rng.uniform(0.1, 2.5), 0.0, 0.0};
    net.step(p, 1.0);
    readings.push_back(sensors.read(net.temperatures()));
    skin.push_back(net.temperatures()[4]);
  }
  SkinTemperatureEstimator est(4);
  est.fit({readings.begin(), readings.begin() + 400}, {skin.begin(), skin.begin() + 400});
  std::vector<double> pred, truth;
  for (std::size_t i = 400; i < readings.size(); ++i) {
    pred.push_back(est.estimate(readings[i]));
    truth.push_back(skin[i]);
  }
  EXPECT_LT(common::rmse(truth, pred), 0.6);
}

TEST(SensorSelection, PicksInformativeSensorsFirst) {
  common::Rng rng(5);
  // Sensor 2 is the skin-adjacent one (highly informative); sensor 0 is pure noise.
  std::vector<common::Vec> readings;
  std::vector<double> skin;
  for (int i = 0; i < 300; ++i) {
    const double true_skin = rng.uniform(30.0, 42.0);
    readings.push_back({rng.uniform(0.0, 100.0),              // noise
                        true_skin * 0.2 + rng.normal(20, 2),  // weak
                        true_skin * 0.9 + rng.normal(3, 0.1), // strong
                        rng.uniform(0.0, 1.0)});              // noise
    skin.push_back(true_skin);
  }
  const auto order = greedy_sensor_selection(readings, skin, 2);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 2u);
}

TEST(PowerBudget, SustainableScaleRespectsLimits) {
  auto net = RcThermalNetwork::mobile_soc();
  const common::Vec shape{0.55, 0.1, 0.35, 0.0, 0.0};
  const auto budget = max_sustainable_power(net, default_leak(), shape);
  EXPECT_GT(budget.total_power_w, 0.0);
  // At the budget, the fixed point must be within limits (with tolerance).
  common::Vec dyn(5, 0.0);
  for (int i = 0; i < 5; ++i) dyn[i] = budget.scale * shape[i];
  const auto fp = thermal_fixed_point(net, default_leak(), dyn);
  ASSERT_TRUE(fp.exists);
  EXPECT_LE(fp.temperature_c[0], 85.0 + 0.1);
  EXPECT_LE(fp.temperature_c[4], 45.0 + 0.1);
}

TEST(PowerBudget, TransientHeadroomExceedsSustainable) {
  auto net = RcThermalNetwork::mobile_soc();
  const common::Vec shape{0.55, 0.1, 0.35, 0.0, 0.0};
  const auto sustained = max_sustainable_power(net, default_leak(), shape);
  const double burst_scale = transient_power_headroom(net, default_leak(), shape, 5.0);
  EXPECT_GT(burst_scale, sustained.scale);
}

// ---- PowerBudgeter == the from-scratch bisection, bit for bit -------------
//
// The reference below is a verbatim copy of the budget code the budgeter
// replaced: every steady-state probe re-solves the fixed point from scratch
// (R, loop gain, LU), every transient probe copies the whole network,
// allocates per tick and runs one scale at a time.  The budgeter must return
// the same bits through every kernel variant.

namespace reference {

FixedPointResult thermal_fixed_point(const RcThermalNetwork& net, const LeakageModel& leak,
                                     const common::Vec& dynamic_power_w) {
  const std::size_t n = net.num_nodes();
  if (dynamic_power_w.size() != n || leak.p0_w.size() != n)
    throw std::invalid_argument("thermal_fixed_point: size mismatch");

  FixedPointResult res;
  const common::Mat r = net.resistance_matrix();
  // Loop gain matrix: R * diag(p0 * k) — how strongly a temperature rise
  // feeds back into itself through leakage.
  common::Mat gain(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) gain(i, j) = r(i, j) * leak.p0_w[j] * leak.k_per_c[j];
  res.loop_gain = common::spectral_radius(gain);
  res.exists = res.loop_gain < 1.0;
  if (!res.exists) return res;

  // dT = R (P_dyn + p0 (1 + k (T_amb + dT - t0)))
  //  => (I - R diag(p0 k)) dT = R (P_dyn + p0 (1 + k (T_amb - t0)))
  common::Mat lhs = common::Mat::identity(n) - gain;
  common::Vec rhs_p(n);
  for (std::size_t i = 0; i < n; ++i)
    rhs_p[i] = dynamic_power_w[i] +
               leak.p0_w[i] * (1.0 + leak.k_per_c[i] * (net.ambient_c() - leak.t0_c));
  const common::Vec rhs = r * rhs_p;
  common::Vec dt(n);
  common::lu_apply(common::lu_factor(lhs), rhs, dt);
  res.temperature_c.resize(n);
  for (std::size_t i = 0; i < n; ++i) res.temperature_c[i] = net.ambient_c() + dt[i];
  const common::Vec p_leak = leak.leakage(res.temperature_c);
  res.total_power_w.resize(n);
  for (std::size_t i = 0; i < n; ++i) res.total_power_w[i] = dynamic_power_w[i] + p_leak[i];
  return res;
}

double node_limit(const PowerBudgetConfig& cfg, std::size_t node) {
  return node == cfg.skin_node ? cfg.t_max_skin_c : cfg.t_max_junction_c;
}

double violation_at_scale(const RcThermalNetwork& net, const LeakageModel& leak,
                          const common::Vec& shape_w, double s, const PowerBudgetConfig& cfg,
                          std::size_t* worst_node) {
  common::Vec dyn(shape_w.size());
  for (std::size_t i = 0; i < dyn.size(); ++i) dyn[i] = s * shape_w[i];
  const FixedPointResult fp = reference::thermal_fixed_point(net, leak, dyn);
  if (!fp.exists) return 1e9;  // runaway: treat as infinite violation
  double worst = -1e9;
  for (std::size_t i = 0; i < fp.temperature_c.size(); ++i) {
    const double v = fp.temperature_c[i] - node_limit(cfg, i);
    if (v > worst) {
      worst = v;
      if (worst_node != nullptr) *worst_node = i;
    }
  }
  return worst;
}

PowerBudgetResult max_sustainable_power(const RcThermalNetwork& net, const LeakageModel& leak,
                                        const common::Vec& shape_w, const PowerBudgetConfig& cfg) {
  if (shape_w.size() != net.num_nodes())
    throw std::invalid_argument("max_sustainable_power: shape size mismatch");
  double total_shape = 0.0;
  for (double v : shape_w) total_shape += v;
  if (total_shape <= 0.0) throw std::invalid_argument("max_sustainable_power: zero shape");

  // Bisection on the scale.
  double lo = 0.0, hi = 1.0;
  std::size_t worst = 0;
  while (violation_at_scale(net, leak, shape_w, hi, cfg, &worst) < 0.0 && hi < 1e4) hi *= 2.0;
  for (int it = 0; it < 60; ++it) {
    const double mid = 0.5 * (lo + hi);
    if (violation_at_scale(net, leak, shape_w, mid, cfg, &worst) < 0.0)
      lo = mid;
    else
      hi = mid;
  }
  PowerBudgetResult res;
  res.scale = lo;
  res.total_power_w = lo * total_shape;
  (void)violation_at_scale(net, leak, shape_w, hi, cfg, &res.binding_node);
  res.skin_bound = res.binding_node == cfg.skin_node;
  return res;
}

double transient_power_headroom(const RcThermalNetwork& net, const LeakageModel& leak,
                                const common::Vec& shape_w, double horizon_s,
                                const PowerBudgetConfig& cfg) {
  if (horizon_s <= 0.0) throw std::invalid_argument("transient_power_headroom: bad horizon");
  auto violates = [&](double s) {
    RcThermalNetwork sim = net;  // do not disturb the caller's state
    // Simulate in 1 s ticks with leakage refreshed from the evolving temps.
    double t = 0.0;
    while (t < horizon_s) {
      const double dt = std::min(1.0, horizon_s - t);
      const common::Vec p_leak = leak.leakage(sim.temperatures());
      common::Vec total(shape_w.size());
      for (std::size_t i = 0; i < total.size(); ++i) total[i] = s * shape_w[i] + p_leak[i];
      sim.step(total, dt);
      for (std::size_t i = 0; i < sim.temperatures().size(); ++i)
        if (sim.temperatures()[i] > node_limit(cfg, i)) return true;
      t += dt;
    }
    return false;
  };
  double lo = 0.0, hi = 1.0;
  while (!violates(hi) && hi < 1e4) hi *= 2.0;
  for (int it = 0; it < 40; ++it) {
    const double mid = 0.5 * (lo + hi);
    (violates(mid) ? hi : lo) = mid;
  }
  return lo;
}

}  // namespace reference

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

void expect_same_budget(const PowerBudgetResult& got, const PowerBudgetResult& want) {
  EXPECT_TRUE(same_bits(got.scale, want.scale)) << got.scale << " vs " << want.scale;
  EXPECT_TRUE(same_bits(got.total_power_w, want.total_power_w))
      << got.total_power_w << " vs " << want.total_power_w;
  EXPECT_EQ(got.binding_node, want.binding_node);
  EXPECT_EQ(got.skin_bound, want.skin_bound);
}

/// Random non-negative power shape with a positive total.
common::Vec random_shape(common::Rng& rng) {
  common::Vec shape(5);
  for (double& v : shape) v = rng.uniform(0.0, 2.0);
  shape[static_cast<std::size_t>(rng.uniform_int(0, 4))] += 0.1;
  return shape;
}

/// Random preheated state strictly inside the limits: die and PCB nodes up
/// to 60% of the way to the junction limit, skin up to 90% of the way to its
/// limit (so probes run long instead of failing on the first tick).
common::Vec random_preheat(common::Rng& rng, double ambient_c, const PowerBudgetConfig& cfg) {
  const double die = cfg.t_max_junction_c - ambient_c;
  const double skin = cfg.t_max_skin_c - ambient_c;
  return {ambient_c + rng.uniform(0.0, 0.6 * die), ambient_c + rng.uniform(0.0, 0.6 * die),
          ambient_c + rng.uniform(0.0, 0.6 * die), ambient_c + rng.uniform(0.0, 0.6 * die),
          ambient_c + rng.uniform(0.0, 0.9 * skin)};
}

PowerBudgetConfig tight_limits() {
  PowerBudgetConfig cfg;
  cfg.t_max_junction_c = 75.0;
  cfg.t_max_skin_c = 40.0;
  return cfg;
}

TEST(FixedPoint, SolverMatchesFromScratchSolveBitwise) {
  common::Rng rng(39);
  const auto net = RcThermalNetwork::mobile_soc(30.0);
  FixedPointSolver solver(net, default_leak());
  common::Vec temp(5);
  for (int k = 0; k < 50; ++k) {
    const common::Vec dyn = random_shape(rng);
    const FixedPointResult want = reference::thermal_fixed_point(net, default_leak(), dyn);
    ASSERT_TRUE(want.exists);
    solver.temperatures_into(dyn, temp);
    const FixedPointResult got = thermal_fixed_point(net, default_leak(), dyn);
    EXPECT_TRUE(same_bits(got.loop_gain, want.loop_gain));
    for (std::size_t i = 0; i < 5; ++i) {
      EXPECT_TRUE(same_bits(temp[i], want.temperature_c[i]));
      EXPECT_TRUE(same_bits(got.temperature_c[i], want.temperature_c[i]));
      EXPECT_TRUE(same_bits(got.total_power_w[i], want.total_power_w[i]));
    }
  }
  LeakageModel hot = default_leak();
  hot.p0_w = {3.5, 0.8, 2.5, 0.0, 0.0};
  hot.k_per_c = {0.12, 0.1, 0.12, 0.0, 0.0};
  FixedPointSolver runaway(net, hot);
  EXPECT_FALSE(runaway.exists());
  EXPECT_THROW(runaway.temperatures_into(common::Vec(5, 1.0), temp), std::logic_error);
}

/// Holds every kernel variant's steady-state budget, through one budgeter,
/// to `want`'s bits.
void expect_steady_variants_match(PowerBudgeter& budgeter, const common::Vec& shape_w,
                                  const PowerBudgetResult& want) {
  for (const auto& variant : common::kernels::detail::supported_variants()) {
    SCOPED_TRACE(variant.name);
    expect_same_budget(budgeter.max_sustainable_power(shape_w, variant), want);
  }
}

TEST(PowerBudgeter, SteadyBudgetsMatchReferenceBitwise) {
  common::Rng rng(41);
  for (double ambient : {25.0, 35.0}) {
    const auto net = RcThermalNetwork::mobile_soc(ambient);
    for (const PowerBudgetConfig& cfg : {PowerBudgetConfig{}, tight_limits()}) {
      // One budgeter serves every shape, as in an adapter.
      PowerBudgeter budgeter(net, default_leak(), cfg);
      for (int k = 0; k < 25; ++k) {
        const common::Vec shape = random_shape(rng);
        const PowerBudgetResult want =
            reference::max_sustainable_power(net, default_leak(), shape, cfg);
        expect_same_budget(budgeter.max_sustainable_power(shape), want);
        expect_steady_variants_match(budgeter, shape, want);
      }
    }
  }
}

/// Holds every kernel variant's transient budget to the reference's bits.
void expect_variants_match_reference(const RcThermalNetwork& net, const LeakageModel& leak,
                                     const common::Vec& shape_w, double horizon_s,
                                     const PowerBudgetConfig& cfg, const char* what) {
  const double want = reference::transient_power_headroom(net, leak, shape_w, horizon_s, cfg);
  PowerBudgeter budgeter(net, leak, cfg);
  for (const auto& variant : common::kernels::detail::supported_variants()) {
    const double got =
        budgeter.transient_power_headroom(net.temperatures(), shape_w, horizon_s, variant);
    EXPECT_TRUE(same_bits(got, want))
        << what << " via " << variant.name << ": " << got << " vs " << want;
  }
}

TEST(PowerBudgeter, TransientBudgetsMatchReferenceBitwise) {
  // 37.3 s ends on a partial 0.3 s tick; 0.5 s is a single partial tick.
  common::Rng rng(43);
  const double ambient = 35.0;
  auto net = RcThermalNetwork::mobile_soc(ambient);
  const PowerBudgetConfig cfg = tight_limits();
  PowerBudgeter budgeter(net, default_leak(), cfg);
  for (double horizon : {0.5, 10.0, 37.3, 240.0}) {
    const int cases = horizon > 100.0 ? 4 : 8;
    int positive = 0;
    for (int k = 0; k < cases; ++k) {
      const common::Vec shape = random_shape(rng);
      net.set_temperatures(random_preheat(rng, ambient, cfg));
      const double got = budgeter.transient_power_headroom(net.temperatures(), shape, horizon);
      const double want =
          reference::transient_power_headroom(net, default_leak(), shape, horizon, cfg);
      EXPECT_TRUE(same_bits(got, want)) << "h" << horizon << ": " << got << " vs " << want;
      if (got > 0.0) ++positive;
      // The one-shot wrapper is the same computation.
      EXPECT_TRUE(
          same_bits(transient_power_headroom(net, default_leak(), shape, horizon, cfg), want));
      // So is the search through every kernel variant.
      expect_variants_match_reference(net, default_leak(), shape, horizon, cfg, "preheated");
    }
    EXPECT_EQ(positive, cases) << "h" << horizon << ": degenerate (zero-headroom) cases";
  }
}

TEST(PowerBudgeter, RunawayLeakageGivesZeroScaleLikeReference) {
  const auto net = RcThermalNetwork::mobile_soc();
  LeakageModel hot = default_leak();
  hot.p0_w = {3.5, 0.8, 2.5, 0.0, 0.0};
  hot.k_per_c = {0.12, 0.1, 0.12, 0.0, 0.0};
  const common::Vec shape{0.55, 0.1, 0.35, 0.0, 0.0};
  PowerBudgeter budgeter(net, hot);
  const PowerBudgetResult got = budgeter.max_sustainable_power(shape);
  EXPECT_EQ(got.scale, 0.0);
  const PowerBudgetResult want = reference::max_sustainable_power(net, hot, shape, {});
  expect_same_budget(got, want);
  expect_steady_variants_match(budgeter, shape, want);
  // Transient: every scale heats without bound.
  for (double horizon : {37.3, 240.0})
    expect_variants_match_reference(net, hot, shape, horizon, {}, "runaway");
}

TEST(PowerBudgeter, ScaleCapMatchesReference) {
  // A shape too small to ever violate: the doubling stops at the hi < 1e4
  // cap and the bisection converges just under it.
  auto net = RcThermalNetwork::mobile_soc();
  const common::Vec tiny{1e-7, 0.0, 1e-7, 0.0, 0.0};
  PowerBudgeter budgeter(net, default_leak());
  const PowerBudgetResult steady = budgeter.max_sustainable_power(tiny);
  EXPECT_GT(steady.scale, 1e4);
  const PowerBudgetResult want = reference::max_sustainable_power(net, default_leak(), tiny, {});
  expect_same_budget(steady, want);
  expect_steady_variants_match(budgeter, tiny, want);
  const double burst = budgeter.transient_power_headroom(net.temperatures(), tiny, 10.0);
  EXPECT_GT(burst, 1e4);
  EXPECT_TRUE(
      same_bits(burst, reference::transient_power_headroom(net, default_leak(), tiny, 10.0, {})));
  expect_variants_match_reference(net, default_leak(), tiny, 10.0, {}, "cap");
}

TEST(PowerBudgeter, PreheatedH240RefreshTakesTwelvePasses) {
  // The preheated fig5_transient device (GPU-heavy shape), refreshed over a
  // 240 s horizon: the predicted path holds for all 40 bisection steps, so
  // the refresh takes the predictor pass, one doubling pass and
  // ceil(40 / 4) bisection passes, where the 2-level tree alone took 21.
  const soc::ThermalGpuConstraintParams tp;
  PowerBudgetConfig cfg;
  cfg.t_max_junction_c = 75.0;
  cfg.t_max_skin_c = 40.0;
  auto net = RcThermalNetwork::mobile_soc(35.0);
  net.set_temperatures({48.0, 46.0, 58.0, 45.0, 39.5});
  const common::Vec shape{0.0, 0.0, 2.4, 1.1, 0.0};
  PowerBudgeter budgeter(net, tp.leakage, cfg);
  for (int call = 0; call < 2; ++call) {
    const std::size_t before = budgeter.probe_passes();
    const double got = budgeter.transient_power_headroom(net.temperatures(), shape, 240.0);
    EXPECT_LE(budgeter.probe_passes() - before, 12u) << "call " << call;
    EXPECT_TRUE(
        same_bits(got, reference::transient_power_headroom(net, tp.leakage, shape, 240.0, cfg)));
  }
}

// ---- predicted_bisection == the sequential loop, bit for bit --------------
//
// Synthetic probes (a pure function of the scale, so the sequential loop
// and the lanes see the same outcome for the same scale) against
// predictions that are right, wrong, non-finite or random.

/// The loop predicted_bisection reproduces, one scale at a time, always run
/// for all kIterations steps.  `doubling_probes` receives how many scales the
/// doubling phase tried, and `live_steps` how many bisection steps ran up to
/// and including the first whose midpoint equalled lo or hi (kIterations if
/// none did): the steps predicted_bisection has to take.  `mid_was_hi`, when
/// given, receives whether that midpoint equalled hi (else lo, or neither).
template <int kIterations, class Violates>
Bracket sequential_bisection(const Violates& violates, int* doubling_probes, int* live_steps,
                             bool* mid_was_hi = nullptr) {
  double lo = 0.0, hi = 1.0;
  *doubling_probes = 1;
  while (!violates(hi) && hi < 1e4) {
    hi *= 2.0;
    ++*doubling_probes;
  }
  *live_steps = kIterations;
  if (mid_was_hi != nullptr) *mid_was_hi = false;
  for (int it = 0; it < kIterations; ++it) {
    const double mid = 0.5 * (lo + hi);
    if ((mid == lo || mid == hi) && *live_steps == kIterations) {
      *live_steps = it + 1;
      if (mid_was_hi != nullptr) *mid_was_hi = mid == hi;
    }
    (violates(mid) ? hi : lo) = mid;
  }
  return {lo, hi};
}

/// predicted_bisection over violates() in every lane; returns its passes.
template <int kIterations, class Violates>
int lane_bisection(const Violates& violates, double predicted, Bracket* out) {
  int passes = 0;
  *out = predicted_bisection<kIterations>(
      [&](const double* scale) {
        ++passes;
        unsigned mask = 0;
        for (std::size_t l = 0; l < common::kernels::kProbeLanes; ++l)
          mask |= (violates(scale[l]) ? 1u : 0u) << l;
        return mask;
      },
      predicted);
  return passes;
}

/// Holds predicted_bisection to the sequential loop's bracket for every
/// prediction in `predictions`, and to its pass bounds over the L live steps
/// (sequential_bisection): ceil(L / 4) bisection passes when `exact`
/// predicts every outcome, at most one more than the 2-level tree's
/// ceil(L / 2) otherwise.
template <int kIterations, class Violates>
void expect_matches_sequential(const Violates& violates, const std::vector<double>& predictions,
                               double exact, const std::string& what) {
  int doubling_probes = 0, live = 0;
  const Bracket want = sequential_bisection<kIterations>(violates, &doubling_probes, &live);
  const int doubling_passes = (doubling_probes + 3) / 4;
  for (double predicted : predictions) {
    Bracket got{};
    const int passes = lane_bisection<kIterations>(violates, predicted, &got);
    EXPECT_TRUE(same_bits(got.lo, want.lo) && same_bits(got.hi, want.hi))
        << what << " K=" << kIterations << " predicted " << predicted << ": [" << got.lo << ", "
        << got.hi << "] vs [" << want.lo << ", " << want.hi << "]";
    EXPECT_LE(passes, doubling_passes + (live + 1) / 2 + 1)
        << what << " K=" << kIterations << " predicted " << predicted;
  }
  if (!std::isnan(exact)) {
    Bracket got{};
    EXPECT_EQ(lane_bisection<kIterations>(violates, exact, &got), doubling_passes + (live + 3) / 4)
        << what << " K=" << kIterations << " exact prediction " << exact;
  }
}

/// The predictions every probe is searched with: `truth` itself, 0, +-inf,
/// NaN, truth * (1 +- 1e-3), and random values on both a linear and a log
/// scale.
std::vector<double> adversarial_predictions(double truth, common::Rng& rng) {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> p{truth, 0.0, inf, -inf, std::numeric_limits<double>::quiet_NaN(),
                        truth * (1.0 + 1e-3), truth * (1.0 - 1e-3)};
  for (int k = 0; k < 4; ++k) {
    p.push_back(rng.uniform(0.0, 2.0 * std::max(truth, 1.0)));
    p.push_back(std::exp(rng.uniform(-20.0, 12.0)));
  }
  return p;
}

template <int kIterations>
void expect_search_matches_sequential_loop() {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  common::Rng rng(61 + kIterations);
  // Threshold probes, strict and not: a threshold below every midpoint
  // (all violate), inside (0, 1), at a doubling scale, past the doubling
  // cap (never violates), and random ones.
  std::vector<double> thresholds{0.0, 1e-300, 0.37, 1.0, 3.3, 4096.0, 2e4};
  for (int k = 0; k < 12; ++k) thresholds.push_back(std::exp(rng.uniform(-30.0, 10.0)));
  for (double t : thresholds) {
    const auto above = [t](double s) { return s > t; };
    const auto at_or_above = [t](double s) { return s >= t; };
    expect_matches_sequential<kIterations>(above, adversarial_predictions(t, rng), t,
                                           "s > " + std::to_string(t));
    expect_matches_sequential<kIterations>(at_or_above, adversarial_predictions(t, rng), nan,
                                           "s >= " + std::to_string(t));
  }
  // Every scale violates / none does.
  const auto always = [](double) { return true; };
  const auto never = [](double) { return false; };
  expect_matches_sequential<kIterations>(always, adversarial_predictions(0.0, rng), 0.0, "always");
  expect_matches_sequential<kIterations>(never, adversarial_predictions(1e4, rng), nan, "never");
  // Non-monotone probes: each scale's outcome is a hash bit of its bits,
  // violating with probability 1/4, 1/2 and 3/4.
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const unsigned cut = static_cast<unsigned>(seed % 3 + 1);
    const auto hashed = [seed, cut](double s) {
      std::uint64_t x = 0;
      std::memcpy(&x, &s, sizeof x);
      x ^= seed * 0x9e3779b97f4a7c15ull;
      x ^= x >> 31;
      x *= 0xbf58476d1ce4e5b9ull;
      x ^= x >> 29;
      return (x & 3u) < cut;
    };
    int doubling = 0, live = 0;
    const double edge = sequential_bisection<kIterations>(hashed, &doubling, &live).lo;
    expect_matches_sequential<kIterations>(hashed, adversarial_predictions(edge, rng), nan,
                                           "hashed seed " + std::to_string(seed));
  }
}

/// Brackets that reach double resolution within kIterations steps, both
/// ways: the last live midpoint equal to hi (a non-violating hi becomes lo,
/// as under the doubling cap) and equal to lo.  Thresholds spread over the
/// doubling range, plus the never-violating probe (hi capped at 16384).
/// Holds each to the full-length loop and checks that both ways occur
/// before kIterations, so the early stop is what the bitwise check covers.
template <int kIterations>
void expect_resolution_cases() {
  common::Rng rng(7 * kIterations);
  std::vector<double> thresholds{0.37, 0.75, 3.3, 1000.5, 9999.0};
  for (int k = 0; k < 24; ++k) thresholds.push_back(std::exp(rng.uniform(-3.0, 9.0)));
  int ends_at_lo = 0, ends_at_hi = 0;
  const auto count = [&](const auto& violates) {
    int doubling = 0, live = 0;
    bool mid_was_hi = false;
    sequential_bisection<kIterations>(violates, &doubling, &live, &mid_was_hi);
    if (live < kIterations) ++(mid_was_hi ? ends_at_hi : ends_at_lo);
    return live;
  };
  for (double t : thresholds) {
    const auto above = [t](double s) { return s > t; };
    const auto at_or_above = [t](double s) { return s >= t; };
    count(above);
    count(at_or_above);
    expect_matches_sequential<kIterations>(above, adversarial_predictions(t, rng), t,
                                           "resolution s > " + std::to_string(t));
    expect_matches_sequential<kIterations>(at_or_above, adversarial_predictions(t, rng),
                                           std::numeric_limits<double>::quiet_NaN(),
                                           "resolution s >= " + std::to_string(t));
  }
  const auto never = [](double) { return false; };
  EXPECT_LT(count(never), kIterations);
  expect_matches_sequential<kIterations>(never, adversarial_predictions(1e4, rng),
                                         std::numeric_limits<double>::quiet_NaN(),
                                         "resolution never");
  EXPECT_GT(ends_at_lo, 0) << "K=" << kIterations;
  EXPECT_GT(ends_at_hi, 0) << "K=" << kIterations;
}

TEST(PredictedBisection, MatchesSequentialLoopBitwiseForAnyProbeAndPrediction) {
  // 40 and 60 are the transient and steady-state budgets' step counts; 1
  // and 7 end both the predicted path and the tree inside a pass.
  expect_search_matches_sequential_loop<40>();
  expect_search_matches_sequential_loop<60>();
  expect_search_matches_sequential_loop<7>();
  expect_search_matches_sequential_loop<1>();
  // Long enough to bisect down to the subnormals: an all-violating probe's
  // bracket then collapses onto 0.
  expect_search_matches_sequential_loop<1100>();
  // The steady-state step count, on brackets that reach double resolution
  // first: the search stops there.
  expect_resolution_cases<60>();
}

TEST(PowerBudgeter, RejectsBadInputs) {
  const auto net = RcThermalNetwork::mobile_soc();
  LeakageModel short_leak = default_leak();
  short_leak.k_per_c = {0.1};
  EXPECT_THROW(PowerBudgeter(net, short_leak), std::invalid_argument);
  PowerBudgeter budgeter(net, default_leak());
  EXPECT_THROW(budgeter.max_sustainable_power({1.0}), std::invalid_argument);
  EXPECT_THROW(budgeter.max_sustainable_power(common::Vec(5, 0.0)), std::invalid_argument);
  const common::Vec shape{0.55, 0.1, 0.35, 0.0, 0.0};
  EXPECT_THROW(budgeter.transient_power_headroom(net.temperatures(), shape, 0.0),
               std::invalid_argument);
  EXPECT_THROW(budgeter.transient_power_headroom({30.0}, shape, 10.0), std::invalid_argument);
}

TEST(PowerBudgeter, RejectsNonFiniteInputs) {
  // Unchecked, a NaN horizon, start temperature or shape entry bisected to
  // the cap scale (no probe ever compares as violating), and an infinite
  // horizon never ended on a shape that stays inside the limits.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const auto net = RcThermalNetwork::mobile_soc();
  PowerBudgeter budgeter(net, default_leak());
  const common::Vec& start = net.temperatures();
  const common::Vec shape{0.55, 0.1, 0.35, 0.0, 0.0};
  for (double horizon : {nan, inf, -inf, 0x1p54})
    EXPECT_THROW(budgeter.transient_power_headroom(start, shape, horizon), std::invalid_argument)
        << horizon;
  for (double bad : {nan, inf, -inf}) {
    common::Vec hot = start;
    hot[2] = bad;
    EXPECT_THROW(budgeter.transient_power_headroom(hot, shape, 10.0), std::invalid_argument);
    common::Vec odd = shape;
    odd[0] = bad;
    EXPECT_THROW(budgeter.transient_power_headroom(start, odd, 10.0), std::invalid_argument);
    EXPECT_THROW(budgeter.max_sustainable_power(odd), std::invalid_argument);
  }
  EXPECT_THROW(transient_power_headroom(net, default_leak(), shape, nan), std::invalid_argument);
  // A network whose 1 s tick needs more Euler substeps than an int holds:
  // the transient search rejects it, the steady-state budget never steps
  // the network and still answers.
  const RcThermalNetwork stiff({{"a", 1e-12, 1.0}, {"b", 1.0, 1.0}}, {{0, 1, 0.5}});
  LeakageModel two;
  two.p0_w = {0.0, 0.0};
  two.k_per_c = {0.0, 0.0};
  PowerBudgeter stiff_budgeter(stiff, two);
  const common::Vec even{1.0, 1.0};
  EXPECT_THROW(stiff_budgeter.transient_power_headroom(stiff.temperatures(), even, 10.0),
               std::invalid_argument);
  // G is [[1.5, -0.5], [-0.5, 1.5]]: each node rises by the scale itself,
  // so the 85 C junction limit binds at 85 - 25.
  EXPECT_NEAR(stiff_budgeter.max_sustainable_power(even).scale, 60.0, 1e-9);
}

// ---- Every rc_probe variant == the sequential probe, bit for bit ----------

/// The scalar probe reference::transient_power_headroom runs, reporting
/// more: the 1-based tick on which constant power s * shape_w first crosses
/// a limit (0 if it never does within the horizon), and the temperatures
/// after `ticks` ticks (0 = the whole horizon), stepping on past a
/// violation.
struct ScalarProbe {
  int violation_tick = 0;
  common::Vec temp_c;
};

ScalarProbe reference_probe(RcThermalNetwork sim, const LeakageModel& leak,
                            const common::Vec& shape_w, double s, double horizon_s,
                            const PowerBudgetConfig& cfg, int ticks = 0) {
  ScalarProbe out;
  double t = 0.0;
  for (int tick = 1; t < horizon_s && (ticks == 0 || tick <= ticks); ++tick) {
    const double dt = std::min(1.0, horizon_s - t);
    const common::Vec p_leak = leak.leakage(sim.temperatures());
    common::Vec total(shape_w.size());
    for (std::size_t i = 0; i < total.size(); ++i) total[i] = s * shape_w[i] + p_leak[i];
    sim.step(total, dt);
    for (std::size_t i = 0; i < sim.temperatures().size(); ++i)
      if (out.violation_tick == 0 && sim.temperatures()[i] > reference::node_limit(cfg, i))
        out.violation_tick = tick;
    t += dt;
  }
  out.temp_c = sim.temperatures();
  return out;
}

/// Runs one rc_probe variant on kProbeLanes scales from the network's
/// current temperatures and checks it against kProbeLanes scalar probes:
/// the violation mask, and every lane's temperatures, bit for bit, after
/// the pass's last tick (the last lane's violation tick when every lane
/// violates, else the horizon).  Returns the scalar violation ticks.
std::vector<int> expect_probe_matches_reference(const common::kernels::KernelTable& variant,
                                                const RcThermalNetwork& net,
                                                const LeakageModel& leak,
                                                const common::Vec& shape_w, double horizon_s,
                                                const PowerBudgetConfig& cfg,
                                                const double* scale) {
  constexpr std::size_t kLanes = common::kernels::kProbeLanes;
  const std::size_t n = net.num_nodes();
  common::Vec limits(n);
  for (std::size_t i = 0; i < n; ++i) limits[i] = reference::node_limit(cfg, i);
  std::vector<double> scratch(4 * n * kLanes);
  const common::kernels::RcProbe probe{n,
                                       net.conductance().raw(),
                                       net.capacitances().data(),
                                       net.ambient_c(),
                                       leak.p0_w.data(),
                                       leak.k_per_c.data(),
                                       leak.t0_c,
                                       limits.data(),
                                       net.temperatures().data(),
                                       shape_w.data(),
                                       horizon_s,
                                       net.max_substep_s(),
                                       scratch.data()};
  const unsigned mask = variant.rc_probe(probe, scale);
  std::vector<int> ticks(kLanes);
  unsigned want = 0;
  int last = 0;
  for (std::size_t l = 0; l < kLanes; ++l) {
    ticks[l] = reference_probe(net, leak, shape_w, scale[l], horizon_s, cfg).violation_tick;
    if (ticks[l] > 0) want |= 1u << l;
    last = ticks[l] == 0 || last == -1 ? -1 : std::max(last, ticks[l]);
  }
  EXPECT_EQ(mask, want) << variant.name;
  for (std::size_t l = 0; l < kLanes; ++l) {
    const common::Vec temp =
        reference_probe(net, leak, shape_w, scale[l], horizon_s, cfg, std::max(last, 0)).temp_c;
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_TRUE(same_bits(scratch[i * kLanes + l], temp[i]))
          << variant.name << " lane " << l << " node " << i << ": " << scratch[i * kLanes + l]
          << " vs " << temp[i];
  }
  return ticks;
}

/// How many different ticks the violating lanes cross a limit on.
std::size_t distinct_ticks(std::vector<int> ticks) {
  ticks.erase(std::remove(ticks.begin(), ticks.end(), 0), ticks.end());
  std::sort(ticks.begin(), ticks.end());
  return static_cast<std::size_t>(std::unique(ticks.begin(), ticks.end()) - ticks.begin());
}

TEST(RcProbe, LanesThatViolateOnDifferentTicksMatchSequentialProbes) {
  constexpr std::size_t kLanes = common::kernels::kProbeLanes;
  const double ambient = 35.0;
  const PowerBudgetConfig cfg = tight_limits();
  auto net = RcThermalNetwork::mobile_soc(ambient);
  net.set_temperatures({48.0, 46.0, 58.0, 45.0, 39.5});
  const common::Vec shape{0.0, 0.0, 2.4, 1.1, 0.0};
  const auto& variants = common::kernels::detail::supported_variants();
  for (double horizon : {240.0, 37.3}) {
    const double edge =
        reference::transient_power_headroom(net, default_leak(), shape, horizon, cfg);
    ASSERT_GT(edge, 0.0);
    // Spread around the headroom edge: the lanes above it cross the limit
    // on different ticks of the same pass, the lowest never does.
    double scale[kLanes];
    for (std::size_t l = 0; l < kLanes; ++l) scale[l] = edge * (4.0 - 3.1 * l / (kLanes - 1));
    for (const auto& variant : variants) {
      const std::vector<int> ticks =
          expect_probe_matches_reference(variant, net, default_leak(), shape, horizon, cfg, scale);
      EXPECT_EQ(ticks[kLanes - 1], 0);
      EXPECT_GE(distinct_ticks(ticks), 3u);
    }
    // Every lane violates, on different ticks: the pass ends early, after
    // the last lane's violation tick.
    for (std::size_t l = 0; l < kLanes; ++l) scale[l] = edge * (1.02 + 0.15 * l);
    for (const auto& variant : variants) {
      const std::vector<int> ticks =
          expect_probe_matches_reference(variant, net, default_leak(), shape, horizon, cfg, scale);
      EXPECT_EQ(std::count(ticks.begin(), ticks.end(), 0), 0);
      EXPECT_GE(distinct_ticks(ticks), 3u);
    }
  }

  // Random states, shapes and scales, lanes in any order (some violating
  // early, some late, some never), over whole and partial ticks.
  common::Rng rng(47);
  for (double h : {0.5, 10.0, 37.3}) {
    for (int k = 0; k < 8; ++k) {
      net.set_temperatures(random_preheat(rng, ambient, cfg));
      const common::Vec rshape = random_shape(rng);
      const double redge = reference::transient_power_headroom(net, default_leak(), rshape, h, cfg);
      double scale[kLanes];
      for (std::size_t l = 0; l < kLanes; ++l) scale[l] = redge * rng.uniform(0.5, 3.0);
      for (const auto& variant : variants)
        expect_probe_matches_reference(variant, net, default_leak(), rshape, h, cfg, scale);
    }
  }
}

TEST(PowerBudgeter, TransientHeadroomIsZeroAboveTheLimitLikeReference) {
  // Already over the skin limit: every lane violates on tick 1.
  const PowerBudgetConfig cfg = tight_limits();
  auto net = RcThermalNetwork::mobile_soc(35.0);
  net.set_temperatures({50.0, 50.0, 50.0, 45.0, cfg.t_max_skin_c + 1.0});
  const common::Vec shape{0.55, 0.1, 0.35, 0.0, 0.0};
  EXPECT_EQ(PowerBudgeter(net, default_leak(), cfg)
                .transient_power_headroom(net.temperatures(), shape, 10.0),
            0.0);
  expect_variants_match_reference(net, default_leak(), shape, 10.0, cfg, "over the limit");
}

TEST(PowerBudgeter, EveryKernelVariantMatchesReferenceOnOtherNodeCounts) {
  // 3 nodes and a 12-node chain: node counts other than the mobile SoC's
  // 5, so both run the kernel's runtime-n form.
  const RcThermalNetwork small({{"a", 6.0, 0.010}, {"b", 4.0, 0.010}, {"c", 120.0, 0.15}},
                               {{0, 1, 0.80}, {0, 2, 0.45}, {1, 2, 0.40}}, 30.0);
  std::vector<ThermalNodeSpec> nodes;
  std::vector<ThermalCoupling> links;
  for (std::size_t i = 0; i < 12; ++i) {
    nodes.push_back({"n" + std::to_string(i), 3.0 + 2.0 * i, 0.01 + 0.02 * i});
    if (i > 0) links.push_back({i - 1, i, 0.3 + 0.05 * i});
  }
  const RcThermalNetwork chain(nodes, links, 30.0);
  common::Rng rng(59);
  for (const RcThermalNetwork* base : {&small, &chain}) {
    const std::size_t n = base->num_nodes();
    LeakageModel leak;
    leak.p0_w.assign(n, 0.0);
    leak.k_per_c.assign(n, 0.0);
    leak.p0_w[0] = 0.3;
    leak.k_per_c[0] = 0.025;
    PowerBudgetConfig cfg;
    cfg.skin_node = n - 1;
    cfg.t_max_skin_c = 40.0;
    cfg.t_max_junction_c = 70.0;
    RcThermalNetwork net = *base;
    for (double horizon : {0.5, 37.3}) {
      for (int k = 0; k < 3; ++k) {
        common::Vec start(n), shape(n);
        for (std::size_t i = 0; i < n; ++i) {
          start[i] = 30.0 + rng.uniform(0.0, 8.0);
          shape[i] = rng.uniform(0.0, 1.0);
        }
        net.set_temperatures(start);
        expect_variants_match_reference(net, leak, shape, horizon, cfg,
                                        n == 3 ? "3 nodes" : "12 nodes");
      }
    }
  }
}

// ---- Every steady_probe variant == the scalar steady probe, bit for bit ---

/// Runs one steady_probe variant on kProbeLanes scales and checks it against
/// kProbeLanes scalar probes (FixedPointSolver::temperatures_into at s *
/// shape_w, then the worst margin from -1e9): every lane's temperatures bit
/// for bit, and the violation mask.  Returns the mask.
unsigned expect_steady_probe_matches_scalar(const common::kernels::KernelTable& variant,
                                            const RcThermalNetwork& net,
                                            const LeakageModel& leak, const common::Vec& shape_w,
                                            const PowerBudgetConfig& cfg, const double* scale) {
  constexpr std::size_t kLanes = common::kernels::kProbeLanes;
  const std::size_t n = net.num_nodes();
  FixedPointSolver solver(net, leak);
  common::Vec limits(n);
  for (std::size_t i = 0; i < n; ++i) limits[i] = reference::node_limit(cfg, i);
  std::vector<double> scratch(2 * n * kLanes);
  const unsigned mask = variant.steady_probe(
      solver.probe_operands(limits.data(), shape_w.data(), scratch.data()), scale);
  unsigned want = 0;
  common::Vec dyn(n), temp(n);
  for (std::size_t l = 0; l < kLanes; ++l) {
    for (std::size_t i = 0; i < n; ++i) dyn[i] = scale[l] * shape_w[i];
    solver.temperatures_into(dyn, temp);
    double worst = -1e9;
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_TRUE(same_bits(scratch[i * kLanes + l], temp[i]))
          << variant.name << " lane " << l << " node " << i << ": " << scratch[i * kLanes + l]
          << " vs " << temp[i];
      const double v = temp[i] - limits[i];
      if (v > worst) worst = v;
    }
    if (!(worst < 0.0)) want |= 1u << l;
  }
  EXPECT_EQ(mask, want) << variant.name;
  return mask;
}

TEST(SteadyProbe, EveryLaneMatchesTheScalarProbeOnEveryNodeCount) {
  constexpr std::size_t kLanes = common::kernels::kProbeLanes;
  // The mobile SoC's 5 nodes take the register-resident body; the 12-node
  // chain takes the runtime-n form.
  std::vector<ThermalNodeSpec> nodes;
  std::vector<ThermalCoupling> links;
  for (std::size_t i = 0; i < 12; ++i) {
    nodes.push_back({"n" + std::to_string(i), 3.0 + 2.0 * i, 0.01 + 0.02 * i});
    if (i > 0) links.push_back({i - 1, i, 0.3 + 0.05 * i});
  }
  const RcThermalNetwork chain(nodes, links, 30.0);
  LeakageModel chain_leak;
  chain_leak.p0_w.assign(12, 0.0);
  chain_leak.k_per_c.assign(12, 0.0);
  chain_leak.p0_w[0] = 0.3;
  chain_leak.k_per_c[0] = 0.025;
  PowerBudgetConfig chain_cfg;
  chain_cfg.skin_node = 11;
  chain_cfg.t_max_skin_c = 40.0;
  chain_cfg.t_max_junction_c = 70.0;

  common::Rng rng(61);
  std::size_t lanes_violating = 0, lanes_clear = 0;
  for (const auto& variant : common::kernels::detail::supported_variants()) {
    for (double ambient : {25.0, 40.0}) {
      const auto soc = RcThermalNetwork::mobile_soc(ambient);
      for (int k = 0; k < 20; ++k) {
        const common::Vec shape = random_shape(rng);
        const PowerBudgetConfig cfg = k % 2 == 0 ? PowerBudgetConfig{} : tight_limits();
        // Scales around the budget edge, so lanes land on both sides of it.
        const double edge =
            reference::max_sustainable_power(soc, default_leak(), shape, cfg).scale;
        double scale[kLanes];
        for (std::size_t l = 0; l < kLanes; ++l) scale[l] = edge * rng.uniform(0.5, 1.5);
        const unsigned mask =
            expect_steady_probe_matches_scalar(variant, soc, default_leak(), shape, cfg, scale);
        const auto violating = static_cast<std::size_t>(__builtin_popcount(mask));
        lanes_violating += violating;
        lanes_clear += kLanes - violating;
      }
    }
    for (int k = 0; k < 10; ++k) {
      common::Vec shape(12);
      for (double& v : shape) v = rng.uniform(0.0, 1.0);
      double scale[kLanes];
      for (std::size_t l = 0; l < kLanes; ++l) scale[l] = rng.uniform(0.0, 40.0);
      expect_steady_probe_matches_scalar(variant, chain, chain_leak, shape, chain_cfg, scale);
    }
  }
  EXPECT_GT(lanes_violating, 0u);
  EXPECT_GT(lanes_clear, 0u);
}

TEST(RcNetwork, InPlaceStepMatchesFromScratchEulerBitwise) {
  // Verbatim per-call stepping the network replaced (min_tau recomputed and a
  // fresh dT/dt vector per substep), on a G assembled here from the same
  // specs as the network under test.
  const std::vector<ThermalNodeSpec> nodes{
      {"a", 6.0, 0.010}, {"b", 4.0, 0.010}, {"c", 120.0, 0.15}};
  const std::vector<ThermalCoupling> couplings{{0, 1, 0.80}, {0, 2, 0.45}, {1, 2, 0.40}};
  const double ambient = 30.0;
  RcThermalNetwork net(nodes, couplings, ambient);
  common::Mat g(3, 3);
  common::Vec cap(3);
  for (std::size_t i = 0; i < 3; ++i) {
    cap[i] = nodes[i].capacitance_j_per_k;
    g(i, i) = nodes[i].conductance_to_ambient_w_per_k;
  }
  for (const auto& c : couplings) {
    g(c.a, c.a) += c.conductance_w_per_k;
    g(c.b, c.b) += c.conductance_w_per_k;
    g(c.a, c.b) -= c.conductance_w_per_k;
    g(c.b, c.a) -= c.conductance_w_per_k;
  }
  common::Vec temp(3, ambient);
  const auto reference_step = [&](const common::Vec& power_w, double dt_s) {
    double min_tau = 1e300;
    for (std::size_t i = 0; i < temp.size(); ++i) min_tau = std::min(min_tau, cap[i] / g(i, i));
    const double h_max = 0.2 * min_tau;
    const int substeps = std::max(1, static_cast<int>(std::ceil(dt_s / h_max)));
    const double h = dt_s / substeps;
    for (int s = 0; s < substeps; ++s) {
      common::Vec dtemp(temp.size(), 0.0);
      for (std::size_t i = 0; i < temp.size(); ++i) {
        double flow = power_w[i];
        for (std::size_t j = 0; j < temp.size(); ++j) flow -= g(i, j) * (temp[j] - ambient);
        dtemp[i] = flow / cap[i];
      }
      for (std::size_t i = 0; i < temp.size(); ++i) temp[i] += h * dtemp[i];
    }
  };
  common::Rng rng(47);
  for (int k = 0; k < 200; ++k) {
    const common::Vec p{rng.uniform(0.0, 4.0), rng.uniform(0.0, 2.0), rng.uniform(0.0, 0.5)};
    const double dt = k % 3 == 0 ? 1.0 / 30.0 : rng.uniform(0.05, 3.0);
    net.step(p, dt);
    reference_step(p, dt);
    for (std::size_t i = 0; i < 3; ++i) ASSERT_TRUE(same_bits(net.temperatures()[i], temp[i]));
  }
}

// ---- Thermal budget adapters (soc layer) ----------------------------------

/// Hot-enclosure params whose steady-state budget binds against the
/// platform's top configurations (the bench_thermal_model setting).
soc::ThermalConstraintParams binding_soc_params() {
  soc::ThermalConstraintParams p;
  p.limits.t_max_junction_c = 55.0;
  p.limits.t_max_skin_c = 43.0;
  p.ambient_c = 40.0;
  p.horizon_s = 0.0;
  return p;
}

TEST(ThermalSocAdapter, ThrottleLadderOrder) {
  soc::BigLittlePlatform plat;
  soc::ThermalSocAdapter adapter(plat, binding_soc_params());
  const soc::SnippetDescriptor snip;  // default: compute-heavy enough to bind
  const soc::SocConfig proposed{4, 4, 12, 18};  // maximum configuration
  const soc::SocConfig clamped = adapter.arbitrate(snip, proposed);

  ASSERT_TRUE(clamped != proposed);
  EXPECT_LE(plat.execute_ideal(snip, clamped).avg_power_w, adapter.budget_w());
  EXPECT_EQ(adapter.clamped_snippets(), 1u);

  // Ladder order: big frequency first, then big cores, then little
  // frequency, then little cores.  A knob may only have moved if every knob
  // earlier in the ladder is already at its floor.
  if (clamped.num_big != proposed.num_big) {
    EXPECT_EQ(clamped.big_freq_idx, 0);
  }
  if (clamped.little_freq_idx != proposed.little_freq_idx) {
    EXPECT_EQ(clamped.big_freq_idx, 0);
    EXPECT_EQ(clamped.num_big, 0);
  }
  if (clamped.num_little != proposed.num_little) {
    EXPECT_EQ(clamped.num_big, 0);
    EXPECT_EQ(clamped.little_freq_idx, 0);
  }

  // The clamp must land exactly where the reference ladder lands.
  soc::SocConfig expected = proposed;
  while (plat.execute_ideal(snip, expected).avg_power_w > adapter.budget_w()) {
    if (expected.num_big > 0) {
      if (expected.big_freq_idx > 0) {
        --expected.big_freq_idx;
      } else {
        --expected.num_big;
      }
    } else if (expected.little_freq_idx > 0) {
      --expected.little_freq_idx;
    } else if (expected.num_little > 1) {
      --expected.num_little;
    } else {
      break;
    }
  }
  EXPECT_EQ(clamped, expected);
}

TEST(ThermalSocAdapter, InfeasibleBudgetBottomsOutAtFloor) {
  soc::BigLittlePlatform plat;
  soc::ThermalConstraintParams p = binding_soc_params();
  p.limits.t_max_skin_c = p.ambient_c + 0.05;  // budget below base power
  soc::ThermalSocAdapter adapter(plat, p);
  const soc::SnippetDescriptor snip;
  const soc::SocConfig floor = adapter.arbitrate(snip, soc::SocConfig{4, 4, 12, 18});
  EXPECT_EQ(floor.num_little, 1);
  EXPECT_EQ(floor.num_big, 0);
  EXPECT_EQ(floor.little_freq_idx, 0);
  EXPECT_EQ(floor.big_freq_idx, 0);
}

TEST(ThermalSocAdapter, SlackBudgetLeavesConfigUntouched) {
  soc::BigLittlePlatform plat;
  soc::ThermalConstraintParams p;  // default cool limits: budget is slack
  soc::ThermalSocAdapter adapter(plat, p);
  const soc::SnippetDescriptor snip;
  const soc::SocConfig proposed{2, 1, 5, 8};
  EXPECT_EQ(adapter.arbitrate(snip, proposed), proposed);
  EXPECT_EQ(adapter.clamped_snippets(), 0u);
}

TEST(ThermalSocAdapter, RejectsWrongSizeNodeVectors) {
  soc::BigLittlePlatform plat;
  {
    soc::ThermalConstraintParams p;
    p.leakage.p0_w = {0.1, 0.1};  // 2 entries, network has 5 nodes
    try {
      soc::ThermalSocAdapter adapter(plat, p);
      FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("leakage.p0_w"), std::string::npos);
      EXPECT_NE(std::string(e.what()).find("5"), std::string::npos);
    }
  }
  {
    soc::ThermalConstraintParams p;
    p.leakage.k_per_c = {0.1, 0.1, 0.1, 0.1, 0.1, 0.1};
    try {
      soc::ThermalSocAdapter adapter(plat, p);
      FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("leakage.k_per_c"), std::string::npos);
    }
  }
  {
    soc::ThermalConstraintParams p;
    p.initial_temperature_c = {40.0, 40.0};
    try {
      soc::ThermalSocAdapter adapter(plat, p);
      FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("initial_temperature_c"), std::string::npos);
    }
  }
}

TEST(ThermalSocAdapter, TelemetrySnapshotReflectsAdapterState) {
  soc::BigLittlePlatform plat;
  const soc::ThermalConstraintParams p = binding_soc_params();
  soc::ThermalSocAdapter adapter(plat, p);
  const soc::ThermalTelemetry t = adapter.telemetry();
  EXPECT_TRUE(t.constrained);
  EXPECT_DOUBLE_EQ(t.budget_w, adapter.budget_w());
  EXPECT_DOUBLE_EQ(t.junction_limit_c, p.limits.t_max_junction_c);
  EXPECT_DOUBLE_EQ(t.skin_limit_c, p.limits.t_max_skin_c);
  EXPECT_DOUBLE_EQ(t.ambient_c, p.ambient_c);
  EXPECT_NEAR(t.junction_c, p.ambient_c, 1e-9);  // nothing executed yet
  // A default-constructed telemetry is the neutral (unconstrained) snapshot.
  const soc::ThermalTelemetry neutral;
  EXPECT_FALSE(neutral.constrained);
  EXPECT_GT(neutral.headroom_w(), 0.0);
}

TEST(ThermalGpuAdapter, ThrottleLadderFrequencyThenSlices) {
  gpu::GpuPlatform plat;
  const double period_s = 1.0 / 30.0;
  soc::ThermalGpuConstraintParams p;
  p.ambient_c = 35.0;
  p.limits.t_max_skin_c = 39.0;
  p.limits.t_max_junction_c = 75.0;
  p.horizon_s = 0.0;
  soc::ThermalGpuAdapter adapter(plat, period_s, p);

  gpu::FrameDescriptor heavy;
  heavy.render_cycles = 70e6;
  heavy.mem_bytes = 40e6;
  heavy.cpu_cycles = 12e6;
  heavy.mem_exposed = 0.10;
  const gpu::GpuConfig proposed{static_cast<int>(plat.num_freqs()) - 1,
                                plat.params().max_slices};
  const gpu::GpuConfig clamped = adapter.arbitrate(heavy, proposed);

  ASSERT_TRUE(clamped != proposed);
  EXPECT_LE(plat.render_ideal(heavy, clamped, period_s).pkg_dram_energy_j / period_s,
            adapter.budget_w());
  // Frequency throttles before slice gating.
  if (clamped.num_slices != proposed.num_slices) {
    EXPECT_EQ(clamped.freq_idx, 0);
  }

  // Infeasible budget bottoms out at 1 slice at minimum frequency.
  soc::ThermalGpuConstraintParams brutal = p;
  brutal.limits.t_max_skin_c = p.ambient_c + 0.02;
  soc::ThermalGpuAdapter floor_adapter(plat, period_s, brutal);
  const gpu::GpuConfig floor = floor_adapter.arbitrate(heavy, proposed);
  EXPECT_EQ(floor.freq_idx, 0);
  EXPECT_EQ(floor.num_slices, 1);
}

TEST(ThermalGpuAdapter, RejectsBadConstruction) {
  gpu::GpuPlatform plat;
  EXPECT_THROW(soc::ThermalGpuAdapter(plat, 0.0), std::invalid_argument);
  soc::ThermalGpuConstraintParams p;
  p.leakage.p0_w = {0.1};
  EXPECT_THROW(soc::ThermalGpuAdapter(plat, 1.0 / 30.0, p), std::invalid_argument);
}

TEST(ThermalAdapters, RejectNonFiniteTimingAndTemperatures) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  gpu::GpuPlatform gplat;
  soc::BigLittlePlatform splat;
  for (double period : {nan, inf})
    EXPECT_THROW(soc::ThermalGpuAdapter(gplat, period), std::invalid_argument);
  for (double bad : {nan, inf, -inf}) {
    // A NaN horizon would select the steady-state budget; a NaN or infinite
    // interval would never refresh it.
    soc::ThermalGpuConstraintParams g;
    soc::ThermalConstraintParams c;
    g.horizon_s = c.horizon_s = bad;
    EXPECT_THROW(soc::ThermalGpuAdapter(gplat, 1.0 / 30.0, g), std::invalid_argument);
    EXPECT_THROW(soc::ThermalSocAdapter(splat, c), std::invalid_argument);
    g = {};
    c = {};
    g.budget_interval_s = c.budget_interval_s = bad;
    EXPECT_THROW(soc::ThermalGpuAdapter(gplat, 1.0 / 30.0, g), std::invalid_argument);
    EXPECT_THROW(soc::ThermalSocAdapter(splat, c), std::invalid_argument);
    g = {};
    c = {};
    g.ambient_c = c.ambient_c = bad;
    EXPECT_THROW(soc::ThermalGpuAdapter(gplat, 1.0 / 30.0, g), std::invalid_argument);
    EXPECT_THROW(soc::ThermalSocAdapter(splat, c), std::invalid_argument);
    // Also under the steady-state budget, which never reads the temperatures.
    g = {};
    c = {};
    g.horizon_s = c.horizon_s = 0.0;
    g.initial_temperature_c = c.initial_temperature_c = {40.0, 40.0, bad, 40.0, 35.0};
    EXPECT_THROW(soc::ThermalGpuAdapter(gplat, 1.0 / 30.0, g), std::invalid_argument);
    EXPECT_THROW(soc::ThermalSocAdapter(splat, c), std::invalid_argument);
  }
  // A skin node outside the 5-node network would be read out of range by
  // the peak tracking and the telemetry.
  for (std::size_t skin : {std::size_t{5}, std::size_t{1000}}) {
    soc::ThermalGpuConstraintParams g;
    soc::ThermalConstraintParams c;
    g.limits.skin_node = c.limits.skin_node = skin;
    EXPECT_THROW(soc::ThermalGpuAdapter(gplat, 1.0 / 30.0, g), std::invalid_argument);
    EXPECT_THROW(soc::ThermalSocAdapter(splat, c), std::invalid_argument);
  }
}

/// Largest temperature over the die nodes (big, little, gpu): every node
/// but PCB (3) and skin (4).
double hottest_die_node(const thermal::RcThermalNetwork& net) {
  const common::Vec& t = net.temperatures();
  return std::max({t[0], t[1], t[2]});
}

TEST(ThermalAdapters, JunctionIsHottestDieNode) {
  // Each adapter's junction is the hottest die node, whichever node that
  // is: the GPU node under the DRM adapter, the big node under the GPU one.
  {
    soc::BigLittlePlatform plat;
    soc::ThermalConstraintParams p;
    p.initial_temperature_c = {41.0, 38.0, 63.0, 36.0, 33.0};  // GPU hottest
    soc::ThermalSocAdapter adapter(plat, p);
    EXPECT_EQ(adapter.telemetry().junction_c, 63.0);
    EXPECT_EQ(adapter.peak_junction_c(), 63.0);
    const soc::SnippetDescriptor snip;
    const soc::SocConfig c{4, 4, 12, 18};
    adapter.observe(snip, c, plat.execute_ideal(snip, c));
    const double hottest = hottest_die_node(adapter.network());
    EXPECT_GT(adapter.network().temperatures()[2], adapter.network().temperatures()[0]);
    EXPECT_EQ(adapter.telemetry().junction_c, hottest);
    EXPECT_EQ(adapter.peak_junction_c(), std::max(63.0, hottest));
  }
  {
    gpu::GpuPlatform plat;
    const double period_s = 1.0 / 30.0;
    soc::ThermalGpuConstraintParams p;
    p.initial_temperature_c = {66.0, 40.0, 47.0, 36.0, 33.0};  // big hottest
    soc::ThermalGpuAdapter adapter(plat, period_s, p);
    EXPECT_EQ(adapter.telemetry().junction_c, 66.0);
    EXPECT_EQ(adapter.peak_junction_c(), 66.0);
    gpu::FrameDescriptor f;
    f.render_cycles = 30e6;
    f.mem_bytes = 20e6;
    f.cpu_cycles = 6e6;
    const gpu::GpuConfig c{static_cast<int>(plat.num_freqs()) - 1, plat.params().max_slices};
    adapter.observe(f, c, plat.render_ideal(f, c, period_s));
    const double hottest = hottest_die_node(adapter.network());
    EXPECT_GT(adapter.network().temperatures()[0], adapter.network().temperatures()[2]);
    EXPECT_EQ(adapter.telemetry().junction_c, hottest);
    EXPECT_EQ(adapter.peak_junction_c(), std::max(66.0, hottest));
  }
}

TEST(ThermalGpuAdapter, TelemetrySnapshotReflectsAdapterState) {
  gpu::GpuPlatform plat;
  soc::ThermalGpuConstraintParams p;
  p.ambient_c = 35.0;
  p.limits.t_max_skin_c = 39.0;
  p.limits.t_max_junction_c = 75.0;
  p.horizon_s = 0.0;
  soc::ThermalGpuAdapter adapter(plat, 1.0 / 30.0, p);
  const soc::ThermalTelemetry t = adapter.telemetry();
  EXPECT_TRUE(t.constrained);
  EXPECT_DOUBLE_EQ(t.budget_w, adapter.budget_w());
  EXPECT_DOUBLE_EQ(t.junction_limit_c, p.limits.t_max_junction_c);
  EXPECT_DOUBLE_EQ(t.skin_limit_c, p.limits.t_max_skin_c);
  EXPECT_DOUBLE_EQ(t.ambient_c, p.ambient_c);
  EXPECT_NEAR(t.junction_c, p.ambient_c, 1e-9);  // nothing rendered yet
}

TEST(ThermalGpuAdapter, TelemetryTracksMovingBudgetAcrossFrames) {
  // A preheated device under a transient_power_headroom horizon with the
  // budget recomputed every frame: heavy frames heat the RC network and the
  // published budget tightens frame over frame; once throttled to the floor
  // the network cools and the budget relaxes again.  The telemetry snapshot
  // must track both directions.
  gpu::GpuPlatform plat;
  const double period_s = 1.0 / 30.0;
  soc::ThermalGpuConstraintParams p;
  p.ambient_c = 35.0;
  p.limits.t_max_skin_c = 40.0;
  p.limits.t_max_junction_c = 75.0;
  p.horizon_s = 120.0;
  p.budget_interval_s = period_s;  // refresh every frame
  p.initial_temperature_c = {48.0, 46.0, 58.0, 45.0, 39.5};  // preheated
  soc::ThermalGpuAdapter adapter(plat, period_s, p);

  gpu::FrameDescriptor heavy;
  heavy.render_cycles = 70e6;
  heavy.mem_bytes = 40e6;
  heavy.cpu_cycles = 12e6;
  heavy.mem_exposed = 0.10;
  const gpu::GpuConfig hot{static_cast<int>(plat.num_freqs()) - 1, plat.params().max_slices};

  // Phase 1: render hot frames — the budget must tighten every frame.  (The
  // first frame of each phase also swaps the observed power shape, so the
  // monotonicity check starts at the second.)
  double prev = 0.0;
  for (int i = 0; i < 8; ++i) {
    adapter.observe(heavy, hot, plat.render_ideal(heavy, hot, period_s));
    const double now = adapter.telemetry().budget_w;
    if (i > 0) {
      EXPECT_LT(now, prev) << "frame " << i << ": budget must tighten while heating";
    }
    prev = now;
  }

  // Phase 2: floor-config frames — cooling relaxes the budget every frame.
  gpu::FrameDescriptor light;
  light.render_cycles = 2e6;
  light.mem_bytes = 1e6;
  light.cpu_cycles = 1e6;
  const gpu::GpuConfig floor{0, 1};
  for (int i = 0; i < 8; ++i) {
    adapter.observe(light, floor, plat.render_ideal(light, floor, period_s));
    const double now = adapter.telemetry().budget_w;
    if (i > 0) {
      EXPECT_GT(now, prev) << "frame " << i << ": budget must relax while cooling";
    }
    prev = now;
  }
}

}  // namespace
}  // namespace oal::thermal
