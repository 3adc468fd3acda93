// Named scenario catalog across every experiment domain.
//
// Benches and examples describe their experiment arms as named scenario
// builders ("fig4/offline/FFT/il", "fig5/SharkDash/enmpc",
// "model/0/1", ...) registered here; the bench driver builds the names a
// prefix selects and hands them to ExperimentEngine.  Names use
// '/'-separated segments so one registry can hold several scenario families
// and a batch can be cut by family prefix; builders run lazily at build time
// so registering a large catalog stays free (and --list never pays for a
// run).  Built scenarios get their registry name as their id, which is also
// the deterministic result order of ExperimentEngine::run_any.
//
// A builder returns any scenario core/domain.h erases: DRM runs, GPU-ENMPC
// frame loops, NoC traffic points, thermally-constrained runs, or custom
// closures.  A builder returning a plain DRM Scenario registers as is, since
// Scenario converts implicitly to AnyScenario.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/domain.h"
#include "core/experiment.h"

namespace oal::core {

class ScenarioRegistry {
 public:
  using AnyBuilder = std::function<AnyScenario()>;

  /// Registers a builder under a unique name; throws std::invalid_argument
  /// on an empty name, a null builder, or a duplicate name.
  void add(const std::string& name, AnyBuilder builder);

  std::size_t size() const { return builders_.size(); }

  /// All registered names selected by `prefix`, lexicographically sorted.
  /// Matching respects '/'-segment boundaries: `prefix` selects the name
  /// equal to it and names extending it as `prefix + "/..."` ("fig1" selects
  /// "fig1" and "fig1/a" but never "fig10/a"); a prefix ending in '/' plainly
  /// string-matches.  Empty selects everything.
  std::vector<std::string> names(const std::string& prefix = "") const;

  /// Builds one scenario; its id is set to the registry name.  Throws
  /// std::invalid_argument for unknown names.
  AnyScenario build(const std::string& name) const;

 private:
  std::map<std::string, AnyBuilder> builders_;
};

}  // namespace oal::core
