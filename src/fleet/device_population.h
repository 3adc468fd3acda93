// Seeded device-population generator for fleet-scale sweeps.
//
// The paper evaluates one device; the "millions of users" direction needs
// thousands of *distinct* simulated devices whose variation mirrors a real
// fleet: silicon process spread, enclosure/ambient temperature spread, and
// per-user workload mixes.  DevicePopulation turns a (seed, device count)
// pair into that fleet deterministically — spec(i) is a pure function of the
// config, so any subset of devices can be generated in any order (the lazy
// generator() feeds ExperimentEngine::run_any_streaming one shard at a
// time without ever materializing the population).
//
// Two modeling choices keep a multi-thousand-device sweep tractable:
//
//  * Process variation is QUANTIZED into a small set of corners (leakage /
//    Ceff multipliers x OPP voltage bins) instead of a continuous draw, so
//    the fleet spans only a handful of distinct soc::PlatformParams.  The
//    Oracle cache keys on the platform fingerprint, so every device in a
//    corner shares the corner's per-snippet Oracle searches — total search
//    cost is bounded by (corners x distinct snippets), independent of the
//    device count, and --store warm passes skip all of it.
//  * Workload mixes are stitched from CANONICAL per-app traces (one fixed
//    trace per app, generated once from the population seed): a device picks
//    1-3 apps and a contiguous window of each, so the distinct-snippet set
//    is bounded by (apps x canonical trace length) while devices still get
//    individual mixes, lengths, and phase alignments.
//
// Ambient temperature is a continuous per-device draw (it feeds the thermal
// adapter, not the Oracle key) binned into named cohorts.  The device id
// embeds its cohort — "fleet/<corner>/<vbin>/<ambient>/dNNNNN" — so '/'
// -prefix selection cuts the fleet by cohort and the streaming aggregator
// recovers the cohort from the id alone.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/domain.h"
#include "core/experiment.h"
#include "core/oracle.h"
#include "soc/platform.h"
#include "soc/snippet.h"

namespace oal::fleet {

struct PopulationConfig {
  std::size_t devices = 200;
  std::uint64_t seed = 909;  ///< master seed; the whole fleet derives from it
  /// Per-device trace length (split across the device's 1-3 app windows).
  std::size_t snippets_per_device = 36;
  /// Length of each app's canonical trace (the window pool).
  std::size_t canonical_snippets_per_app = 96;
  /// Fleet-wide thermal limits (the skin limit also defines a "violation").
  double t_max_junction_c = 55.0;
  double t_max_skin_c = 43.0;
};

/// Everything that makes device `index` itself; pure function of the config.
struct DeviceSpec {
  std::size_t index = 0;
  std::string id;      ///< "fleet/<corner>/<vbin>/<ambient-bin>/dNNNNN"
  std::string cohort;  ///< "<corner>/<vbin>/<ambient-bin>"
  std::size_t corner = 0;   ///< process-corner index: slow, typ, fast
  std::size_t vbin = 0;     ///< OPP voltage-bin index: vlow, vnom, vhigh
  double ambient_c = 25.0;  ///< continuous per-device draw
  soc::PlatformParams platform;  ///< quantized corner parameters
  std::vector<soc::SnippetDescriptor> trace;  ///< stitched app windows
};

class DevicePopulation {
 public:
  explicit DevicePopulation(PopulationConfig cfg,
                            std::shared_ptr<core::OracleCache> oracle_cache = nullptr);

  std::size_t size() const { return cfg_.devices; }
  const PopulationConfig& config() const { return cfg_; }

  /// Device `index`'s spec; deterministic and order-independent.
  DeviceSpec spec(std::size_t index) const;

  /// Device `index` as a runnable arm: an "ondemand"-governed DRM run of the
  /// device's trace on its corner platform under the fleet thermal limits at
  /// the device's ambient (soc::ThermalSocAdapter clamping every decision),
  /// with the Oracle computed through the shared cache.
  core::AnyScenario scenario(std::size_t index) const;
  core::AnyScenario scenario(const DeviceSpec& spec) const;

  /// Lazy source over the whole fleet in index order, for
  /// ExperimentEngine::run_any_streaming (index order == id order within
  /// every cohort-uniform shard is NOT guaranteed across cohorts; the
  /// engine's per-shard id-order delivery is what downstream code relies
  /// on).  The generator holds a private cursor; it may outlive `this`.
  core::ExperimentEngine::AnyGenerator generator() const;

  /// Cohort key of a fleet device id: strips the "fleet/" root and the
  /// "/dNNNNN" leaf ("fleet/typ/vnom/hot/d00042" -> "typ/vnom/hot").
  /// Throws std::invalid_argument on ids outside the fleet scheme.
  static std::string cohort_of_id(const std::string& device_id);

 private:
  PopulationConfig cfg_;
  std::shared_ptr<core::OracleCache> oracle_cache_;
  /// Canonical per-app traces, shared (read-only) by every device closure.
  std::shared_ptr<const std::vector<std::vector<soc::SnippetDescriptor>>> canonical_;
};

}  // namespace oal::fleet
