// Thermal power budgeting (Bhat et al., IEEE TVLSI 2018; paper Section
// III-A): "computing the maximum power consumption that can be sustained
// before causing thermal violations.  Then, the power budget is used as a
// metric to throttle the frequency and number of operating cores."
#pragma once

#include <cstddef>
#include <optional>

#include "common/kernels.h"
#include "common/matrix.h"
#include "thermal/fixed_point.h"
#include "thermal/rc_network.h"

namespace oal::thermal {

struct PowerBudgetConfig {
  double t_max_junction_c = 85.0;  ///< die-node limit
  double t_max_skin_c = 45.0;      ///< skin-node limit (user comfort/safety)
  std::size_t skin_node = 4;       ///< index of the skin node
};

/// Maximum uniform scale s such that steady-state temperatures under
/// s * shape_w (plus temperature-dependent leakage) stay below the limits.
/// `shape_w` is the relative power distribution of the current workload.
/// Returns the scale and the binding node index.
struct PowerBudgetResult {
  double scale = 0.0;
  double total_power_w = 0.0;
  std::size_t binding_node = 0;
  bool skin_bound = false;  ///< true if the skin limit binds before junction
};

/// Budget solver bound to one RC network, leakage model and limit set.
///
/// Both budgets bisect on the power scale through one lane search
/// (thermal/bisection.h) and a lane-parallel probe kernel each
/// (common::kernels): the steady-state probe (steady_probe) solves the
/// power-temperature fixed point through one FixedPointSolver (R, loop gain
/// and LU factored on the first steady-state call), the transient probe
/// (rc_probe) simulates the RC network over the horizon.  One kernel call
/// evaluates four scales.  The doubling phase tries hi, 2hi, 4hi and 8hi at
/// once.  The bisection first follows a predicted path: temperatures are
/// affine in the power scale (leakage is linear and, in the transient
/// probe, refreshed once per 1 s tick), so one predictor pass at s = 0 and
/// s = 1 (two fixed-point solves, or a two-lane scalar simulation on the
/// probe's own schedule) predicts the scale where probes start to violate,
/// and one call evaluates the next four midpoints along the branch that
/// prediction takes.  Outcomes are kept up to and including the first one
/// the prediction got wrong; from then on each call is a 2-level tree (the
/// midpoint and both midpoints that can follow it).  A right prediction
/// takes ~11 calls for a transient budget (40 bisection steps) instead of
/// 21, and a wrong one at most one call more than the tree alone.
///
/// Bitwise contract: every budget equals the sequential from-scratch
/// computation bit for bit.  The probes perform the same FP operations in
/// the same order (rhs = s*shape_i + c_i; T = T_amb + dT, then T - limit;
/// the Mat*Vec, LU and RC-step summation orders unchanged), and every
/// probed scale whose outcome the search keeps is the exact expression the
/// sequential loop evaluates next (0.5 * (lo + hi) of the bracket the
/// outcomes so far leave).  The prediction only chooses which scales fill
/// the lanes, never an outcome or a bracket, so no predicted value (wrong,
/// NaN or infinite) changes a bit; the search never assumes a probe is
/// monotone in the scale.  After the first steady-state call, budget calls
/// are allocation-free.
class PowerBudgeter {
 public:
  /// Copies the network (its G, capacities and ambient; the temperatures
  /// are supplied per transient call).  Throws std::invalid_argument if the
  /// leakage vectors do not match the network's node count.
  PowerBudgeter(const RcThermalNetwork& net, LeakageModel leak, PowerBudgetConfig cfg = {});

  /// Steady-state budget (see max_sustainable_power).  Throws
  /// std::invalid_argument on a shape size mismatch, a non-finite shape
  /// entry or a non-positive shape.
  PowerBudgetResult max_sustainable_power(const common::Vec& shape_w);
  /// The same search through one given kernel variant; the overload above
  /// passes common::kernels::active().  Exposed so tests can hold every
  /// variant to the same bits.
  PowerBudgetResult max_sustainable_power(const common::Vec& shape_w,
                                          const common::kernels::KernelTable& kernels);

  /// Transient headroom scale from the temperatures `start_temp_c` (see
  /// transient_power_headroom).  Throws std::invalid_argument on a size
  /// mismatch, a non-finite start temperature or shape entry, a horizon
  /// that is not in (0, 2^53] s (past 2^53 the 1 s ticks stop advancing
  /// the clock), or a network whose 1 s tick needs more Euler substeps
  /// than an int holds.
  double transient_power_headroom(const common::Vec& start_temp_c, const common::Vec& shape_w,
                                  double horizon_s);
  /// The same search through one given kernel variant; the overload above
  /// passes common::kernels::active().  Exposed so tests can hold every
  /// variant to the same bits.
  double transient_power_headroom(const common::Vec& start_temp_c, const common::Vec& shape_w,
                                  double horizon_s, const common::kernels::KernelTable& kernels);

  /// Probe passes run so far, over every budget call: one predictor pass
  /// per call plus every probe kernel call.  The binding node's scalar
  /// solve is not counted.
  std::size_t probe_passes() const { return probe_passes_; }

 private:
  double node_limit(std::size_t node) const;
  double steady_violation(const common::Vec& shape_w, double s, std::size_t* worst_node);
  double steady_prediction(const common::Vec& shape_w);
  double transient_prediction(const common::Vec& start_temp_c, const common::Vec& shape_w,
                              double horizon_s);

  LeakageModel leak_;
  PowerBudgetConfig cfg_;
  RcThermalNetwork net_;  ///< G, capacities, ambient and substep bound
  /// Built on the first steady-state call, so a transient-only budgeter
  /// never needs G to be invertible.
  std::optional<FixedPointSolver> steady_;
  // Scalar steady-state probe scratch (the binding node).
  common::Vec dyn_, fp_temp_;
  // Probe kernel operands: per-node limits and the kernels' lane scratch.
  common::Vec limit_c_, lanes_;
  // Predictor scratch: the steady fixed point at s = 1, and the transient
  // predictor's two-lane state (temperatures, powers, rises, dT/dt).
  common::Vec pred_temp_, pred_lanes_;
  std::size_t probe_passes_ = 0;
};

/// One-shot steady-state budget: PowerBudgeter(net, leak, cfg)
/// .max_sustainable_power(shape_w).
PowerBudgetResult max_sustainable_power(const RcThermalNetwork& net, const LeakageModel& leak,
                                        const common::Vec& shape_w,
                                        const PowerBudgetConfig& cfg = {});

/// Transient headroom: largest constant power scale that keeps all nodes
/// below their limits for the next `horizon_s` seconds starting from the
/// network's current state (bisection on the scale).  One-shot form of
/// PowerBudgeter::transient_power_headroom.
double transient_power_headroom(const RcThermalNetwork& net, const LeakageModel& leak,
                                const common::Vec& shape_w, double horizon_s,
                                const PowerBudgetConfig& cfg = {});

}  // namespace oal::thermal
