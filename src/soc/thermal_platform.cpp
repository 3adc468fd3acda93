#include "soc/thermal_platform.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

namespace oal::soc {

namespace {

// Node indices of thermal::RcThermalNetwork::mobile_soc().
constexpr std::size_t kBigNode = 0;
constexpr std::size_t kLittleNode = 1;
constexpr std::size_t kGpuNode = 2;
constexpr std::size_t kPcbNode = 3;

double sum(const common::Vec& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

/// Both adapters accept user-supplied per-node vectors and a skin node
/// index; any mismatch against the RC network would silently index out of
/// range deep in the hot loop, so validate everything up front with sizes in
/// the message.  Returns the mobile-SoC network at its starting temperatures.
thermal::RcThermalNetwork validated_network(const char* who, const ThermalBudgetParams& p) {
  thermal::RcThermalNetwork net = thermal::RcThermalNetwork::mobile_soc(p.ambient_c);
  const std::size_t n = net.num_nodes();
  const auto fail = [who, n](const char* field, std::size_t got) {
    throw std::invalid_argument(std::string(who) + ": " + field + " has " + std::to_string(got) +
                                " entries but the RC network has " + std::to_string(n) +
                                " nodes");
  };
  if (!p.initial_temperature_c.empty() && p.initial_temperature_c.size() != n)
    fail("initial_temperature_c", p.initial_temperature_c.size());
  if (p.leakage.p0_w.size() != n) fail("leakage.p0_w", p.leakage.p0_w.size());
  if (p.leakage.k_per_c.size() != n) fail("leakage.k_per_c", p.leakage.k_per_c.size());
  if (p.limits.skin_node >= n)
    throw std::invalid_argument(std::string(who) + ": limits.skin_node is outside the RC network");
  if (!std::isfinite(p.ambient_c))
    throw std::invalid_argument(std::string(who) + ": non-finite ambient_c");
  for (double t : p.initial_temperature_c)
    if (!std::isfinite(t))
      throw std::invalid_argument(std::string(who) + ": non-finite initial_temperature_c entry");
  // The budget cadence and horizon must be finite: a NaN horizon would
  // silently select the steady-state budget, and a NaN or infinite interval
  // would never refresh the budget.
  if (!std::isfinite(p.horizon_s))
    throw std::invalid_argument(std::string(who) + ": horizon_s must be finite");
  if (!std::isfinite(p.budget_interval_s))
    throw std::invalid_argument(std::string(who) + ": budget_interval_s must be finite");
  if (!p.initial_temperature_c.empty()) net.set_temperatures(p.initial_temperature_c);
  return net;
}

}  // namespace

// ---------------------------------------------------------------------------
// ThermalBudgetCore
// ---------------------------------------------------------------------------

ThermalBudgetCore::ThermalBudgetCore(const char* who, ThermalBudgetParams params,
                                     common::Vec nominal_shape_w)
    : params_(std::move(params)),
      net_(validated_network(who, params_)),
      budgeter_(net_, params_.leakage, params_.limits),
      shape_w_(std::move(nominal_shape_w)),
      leak_w_(net_.num_nodes(), 0.0),
      power_w_(net_.num_nodes(), 0.0) {
  track_peaks();
  refresh_budget();
}

void ThermalBudgetCore::refresh_budget() {
  if (params_.horizon_s > 0.0) {
    const double scale =
        budgeter_.transient_power_headroom(net_.temperatures(), shape_w_, params_.horizon_s);
    budget_w_ = scale * sum(shape_w_);
  } else {
    budget_w_ = budgeter_.max_sustainable_power(shape_w_).total_power_w;
  }
}

// oal-lint: hot-path
void ThermalBudgetCore::advance(double dt_s) {
  params_.leakage.leakage_into(net_.temperatures(), leak_w_);
  for (std::size_t i = 0; i < power_w_.size(); ++i) power_w_[i] = shape_w_[i] + leak_w_[i];
  net_.step(power_w_, dt_s);
  track_peaks();

  since_budget_s_ += dt_s;
  if (since_budget_s_ >= params_.budget_interval_s) {
    refresh_budget();
    since_budget_s_ = 0.0;
  }
}
// oal-lint: hot-path-end

double ThermalBudgetCore::hottest_die_c() const {
  const common::Vec& t = net_.temperatures();
  double hottest = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (i == params_.limits.skin_node || i == kPcbNode) continue;
    hottest = std::max(hottest, t[i]);
  }
  return hottest;
}

void ThermalBudgetCore::track_peaks() {
  peak_junction_c_ = std::max(peak_junction_c_, hottest_die_c());
  peak_skin_c_ = std::max(peak_skin_c_, net_.temperatures()[params_.limits.skin_node]);
}

ThermalTelemetry ThermalBudgetCore::telemetry() const {
  ThermalTelemetry t;
  t.constrained = true;
  t.junction_c = hottest_die_c();
  t.skin_c = net_.temperatures()[params_.limits.skin_node];
  t.junction_limit_c = params_.limits.t_max_junction_c;
  t.skin_limit_c = params_.limits.t_max_skin_c;
  t.ambient_c = params_.ambient_c;
  t.budget_w = budget_w_;
  t.last_power_w = sum(shape_w_);
  return t;
}

// ---------------------------------------------------------------------------
// ThermalSocAdapter
// ---------------------------------------------------------------------------

// Nominal big-heavy shape (big, little, gpu, pcb, skin) until the first
// snippet is observed.
ThermalSocAdapter::ThermalSocAdapter(BigLittlePlatform& platform, ThermalConstraintParams params)
    : platform_(&platform),
      core_("ThermalSocAdapter", std::move(params), {0.55, 0.10, 0.0, 0.35, 0.0}) {}

bool throttle_step(SocConfig& c) {
  // Big-cluster knobs are only touched while the cluster is on: with
  // num_big == 0 its frequency has no power effect, and stepping it would
  // record phantom clamps.
  if (c.num_big > 0) {
    if (c.big_freq_idx > 0) {
      --c.big_freq_idx;
    } else {
      --c.num_big;
    }
  } else if (c.little_freq_idx > 0) {
    --c.little_freq_idx;
  } else if (c.num_little > 1) {
    --c.num_little;
  } else {
    return false;
  }
  return true;
}

SocConfig ThermalSocAdapter::arbitrate(const SnippetDescriptor& s, const SocConfig& proposed) {
  SocConfig c = proposed;
  const auto over_budget = [&](const SocConfig& cc) {
    return platform_->execute_ideal(s, cc).avg_power_w > core_.budget_w();
  };
  // Firmware-style throttle ladder; bottoms out at 1 LITTLE core at minimum
  // frequency (the budget can be infeasible — e.g. base power alone above
  // it — in which case the floor config runs and temperatures keep rising
  // until the next budget refresh).
  while (over_budget(c)) {
    if (!throttle_step(c)) break;
  }
  if (c != proposed) ++clamped_;
  return c;
}

// oal-lint: hot-path
void ThermalSocAdapter::observe(const SnippetDescriptor& s, const SocConfig& applied,
                                const SnippetResult& r) {
  const PowerBreakdown bd = platform_->power_breakdown(s, applied);
  common::Vec& shape = core_.shape_w();
  std::fill(shape.begin(), shape.end(), 0.0);
  shape[kBigNode] = bd.big_w;
  shape[kLittleNode] = bd.little_w;
  shape[kPcbNode] = bd.dram_w + bd.base_w;
  core_.advance(r.exec_time_s);
}
// oal-lint: hot-path-end

// ---------------------------------------------------------------------------
// ThermalGpuAdapter
// ---------------------------------------------------------------------------

// Nominal render-heavy shape (big, little, gpu, pcb, skin) until the first
// frame is observed.
ThermalGpuAdapter::ThermalGpuAdapter(gpu::GpuPlatform& platform, double period_s,
                                     ThermalGpuConstraintParams params)
    : platform_(&platform),
      period_s_(period_s),
      core_("ThermalGpuAdapter", std::move(params), {0.0, 0.0, 0.60, 0.40, 0.0}) {
  if (!(period_s_ > 0.0 && std::isfinite(period_s_)))
    throw std::invalid_argument("ThermalGpuAdapter: period_s must be finite and > 0");
}

bool gpu_throttle_step(gpu::GpuConfig& c) {
  if (c.freq_idx > 0) {
    --c.freq_idx;
  } else if (c.num_slices > 1) {
    --c.num_slices;
  } else {
    return false;
  }
  return true;
}

gpu::GpuConfig ThermalGpuAdapter::arbitrate(const gpu::FrameDescriptor& f,
                                            const gpu::GpuConfig& proposed) {
  gpu::GpuConfig c = proposed;
  const auto over_budget = [&](const gpu::GpuConfig& cc) {
    // Full producer-side power (PKG + DRAM scope) against the budget — the
    // same total the observer injects into the RC network.
    return platform_->render_ideal(f, cc, period_s_).pkg_dram_energy_j / period_s_ >
           core_.budget_w();
  };
  // Firmware throttle ladder; bottoms out at 1 slice at minimum frequency
  // (an infeasible budget runs the floor config and temperatures keep rising
  // until the next refresh).
  while (over_budget(c)) {
    if (!gpu_throttle_step(c)) break;
  }
  if (c != proposed) ++clamped_;
  return c;
}

// oal-lint: hot-path
void ThermalGpuAdapter::observe(const gpu::FrameDescriptor& /*f*/,
                                const gpu::GpuConfig& /*applied*/, const gpu::FrameResult& r) {
  common::Vec& shape = core_.shape_w();
  std::fill(shape.begin(), shape.end(), 0.0);
  shape[kGpuNode] = r.gpu_energy_j / period_s_;
  shape[kPcbNode] = (r.pkg_dram_energy_j - r.gpu_energy_j) / period_s_;
  core_.advance(period_s_);
}
// oal-lint: hot-path-end

}  // namespace oal::soc
