#include "core/scenario_registry.h"

#include <stdexcept>
#include <utility>

namespace oal::core {

namespace {

/// Prefix match on '/'-segment boundaries: a prefix selects a whole name or
/// a name it extends as `prefix + "/..."` — never a sibling that merely
/// shares leading characters ("fig1" must not select "fig10/...").
bool prefix_matches(const std::string& name, const std::string& prefix) {
  if (prefix.empty()) return true;
  if (name.size() < prefix.size() || name.compare(0, prefix.size(), prefix) != 0) return false;
  return name.size() == prefix.size() || prefix.back() == '/' || name[prefix.size()] == '/';
}

}  // namespace

void ScenarioRegistry::add(const std::string& name, AnyBuilder builder) {
  if (name.empty()) throw std::invalid_argument("ScenarioRegistry::add: empty name");
  if (!builder) throw std::invalid_argument("ScenarioRegistry::add: null builder for " + name);
  if (!builders_.emplace(name, std::move(builder)).second)
    throw std::invalid_argument("ScenarioRegistry::add: duplicate name " + name);
}

std::vector<std::string> ScenarioRegistry::names(const std::string& prefix) const {
  std::vector<std::string> out;
  for (const auto& [name, builder] : builders_)
    if (prefix_matches(name, prefix)) out.push_back(name);
  return out;
}

AnyScenario ScenarioRegistry::build(const std::string& name) const {
  const auto it = builders_.find(name);
  if (it == builders_.end())
    throw std::invalid_argument("ScenarioRegistry::build: unknown scenario " + name);
  return it->second().renamed(name);
}

}  // namespace oal::core
