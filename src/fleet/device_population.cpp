#include "fleet/device_population.h"

#include <cstdio>
#include <stdexcept>
#include <utility>

#include "common/rng.h"
#include "core/scenario_factories.h"
#include "soc/thermal_platform.h"
#include "workloads/cpu_benchmarks.h"

namespace oal::fleet {

namespace {

// Quantized silicon corners: a handful of discrete (leakage, Ceff) points
// instead of a continuous draw, so the fleet spans few distinct
// PlatformParams and every device in a corner shares the corner's Oracle
// searches (the cache keys on the platform fingerprint).
struct Corner {
  const char* name;
  double leak_mul;  ///< on leak_{little,big}_w_per_v
  double ceff_mul;  ///< on ceff_{little,big}_nf
};
constexpr Corner kCorners[] = {
    {"slow", 0.72, 1.06},  // slow silicon: low leakage, higher Ceff
    {"typ", 1.00, 1.00},
    {"fast", 1.38, 0.94},  // fast silicon: leaky, slightly lower Ceff
};

// OPP voltage bins: binning-time guardband spread applied to both clusters'
// voltage endpoints (the convex OPP curve between them shifts with it).
struct VoltageBin {
  const char* name;
  double v_mul;
};
constexpr VoltageBin kVbins[] = {
    {"vlow", 0.960},
    {"vnom", 1.000},
    {"vhigh", 1.045},
};

// Typ-heavy categorical weights for both quantized axes (the middle of a
// binned normal).
const std::vector<double> kCornerWeights{1.0, 2.0, 1.0};
const std::vector<double> kVbinWeights{1.0, 2.0, 1.0};

const char* ambient_bin(double ambient_c) {
  if (ambient_c < 18.0) return "cool";
  if (ambient_c < 32.0) return "temperate";
  return "hot";
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  return seed ^ (0x9e3779b97f4a7c15ULL * (salt + 1));
}

}  // namespace

DevicePopulation::DevicePopulation(PopulationConfig cfg,
                                   std::shared_ptr<core::OracleCache> oracle_cache)
    : cfg_(cfg), oracle_cache_(std::move(oracle_cache)) {
  if (cfg_.devices == 0) throw std::invalid_argument("fleet: devices must be > 0");
  if (cfg_.snippets_per_device == 0)
    throw std::invalid_argument("fleet: snippets_per_device must be > 0");
  if (cfg_.snippets_per_device > cfg_.canonical_snippets_per_app)
    throw std::invalid_argument(
        "fleet: snippets_per_device must fit inside one canonical app trace");
  // Canonical per-app traces: one fixed trace per app, derived from the
  // population seed alone, so every device window is a view into the same
  // bounded snippet pool (bounded Oracle search count).
  auto canonical = std::make_shared<std::vector<std::vector<soc::SnippetDescriptor>>>();
  const auto& apps = workloads::CpuBenchmarks::all();
  canonical->reserve(apps.size());
  for (std::size_t a = 0; a < apps.size(); ++a) {
    common::Rng app_rng(mix_seed(cfg_.seed * 0x100000001b3ULL, a));
    canonical->push_back(
        workloads::CpuBenchmarks::trace(apps[a], cfg_.canonical_snippets_per_app, app_rng));
  }
  canonical_ = std::move(canonical);
}

DeviceSpec DevicePopulation::spec(std::size_t index) const {
  if (index >= cfg_.devices) throw std::out_of_range("fleet: device index out of range");
  DeviceSpec d;
  d.index = index;
  // Per-device stream derived from (seed, index) only: specs are identical
  // regardless of generation order or which subset is generated.
  common::Rng rng(mix_seed(cfg_.seed, index));

  d.corner = rng.categorical(kCornerWeights);
  d.vbin = rng.categorical(kVbinWeights);
  const Corner& corner = kCorners[d.corner];
  const VoltageBin& vbin = kVbins[d.vbin];
  d.platform.leak_little_w_per_v *= corner.leak_mul;
  d.platform.leak_big_w_per_v *= corner.leak_mul;
  d.platform.ceff_little_nf *= corner.ceff_mul;
  d.platform.ceff_big_nf *= corner.ceff_mul;
  d.platform.v_min_little *= vbin.v_mul;
  d.platform.v_max_little *= vbin.v_mul;
  d.platform.v_min_big *= vbin.v_mul;
  d.platform.v_max_big *= vbin.v_mul;

  // Enclosure/ambient spread: continuous (it never enters the Oracle key),
  // binned only for the cohort name.  The hot tail sits close to the skin
  // limit, where the steady-state budget binds and clamping concentrates.
  double ambient = rng.normal(29.0, 8.0);
  if (ambient < 5.0) ambient = 5.0;
  if (ambient > 42.0) ambient = 42.0;
  d.ambient_c = ambient;

  // Workload mix: 1-3 apps, each a contiguous window of its canonical trace.
  const auto& canonical = *canonical_;
  const std::size_t napps = static_cast<std::size_t>(rng.uniform_int(1, 3));
  const std::size_t base_len = cfg_.snippets_per_device / napps;
  d.trace.reserve(cfg_.snippets_per_device);
  for (std::size_t k = 0; k < napps; ++k) {
    const std::size_t len =
        (k + 1 == napps) ? cfg_.snippets_per_device - base_len * k : base_len;
    const auto app = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(canonical.size()) - 1));
    const std::vector<soc::SnippetDescriptor>& trace = canonical[app];
    const auto start = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(trace.size() - len)));
    d.trace.insert(d.trace.end(), trace.begin() + static_cast<std::ptrdiff_t>(start),
                   trace.begin() + static_cast<std::ptrdiff_t>(start + len));
  }

  char leaf[22];  // "d", up to 20 digits of a 64-bit size_t, NUL
  std::snprintf(leaf, sizeof leaf, "d%05zu", index);
  d.cohort = std::string(corner.name) + "/" + vbin.name + "/" + ambient_bin(d.ambient_c);
  d.id = "fleet/" + d.cohort + "/" + leaf;
  return d;
}

core::AnyScenario DevicePopulation::scenario(const DeviceSpec& spec) const {
  core::Scenario s;
  s.id = spec.id;
  s.platform = spec.platform;
  s.platform_noise_seed = mix_seed(cfg_.seed * 0x517cc1b727220a95ULL, spec.index);
  s.trace = spec.trace;
  s.make_controller = core::governor_factory("ondemand");
  s.oracle_cache = oracle_cache_;

  soc::ThermalConstraintParams thermal;
  thermal.limits.t_max_junction_c = cfg_.t_max_junction_c;
  thermal.limits.t_max_skin_c = cfg_.t_max_skin_c;
  thermal.ambient_c = spec.ambient_c;
  thermal.horizon_s = 0.0;  // steady-state max-sustainable-power budget
  return core::AnyScenario(core::ThermalDrmScenario{std::move(s), thermal});
}

core::AnyScenario DevicePopulation::scenario(std::size_t index) const {
  return scenario(spec(index));
}

core::ExperimentEngine::AnyGenerator DevicePopulation::generator() const {
  auto self = std::make_shared<DevicePopulation>(*this);  // shares canonical_
  auto next = std::make_shared<std::size_t>(0);
  return [self, next]() -> std::optional<core::AnyScenario> {
    if (*next >= self->size()) return std::nullopt;
    return self->scenario((*next)++);
  };
}

std::string DevicePopulation::cohort_of_id(const std::string& device_id) {
  const std::string root = "fleet/";
  const std::size_t leaf = device_id.rfind('/');
  if (device_id.compare(0, root.size(), root) != 0 || leaf == std::string::npos ||
      leaf <= root.size())
    throw std::invalid_argument("fleet: id outside the fleet scheme: '" + device_id + "'");
  return device_id.substr(root.size(), leaf - root.size());
}

}  // namespace oal::fleet
