#pragma once
/// \file registry.hpp
/// \brief Named scenario registry: every paper figure and ablation as a
///        ready-to-run ScenarioSpec.
///
/// The registry is the lookup half of the declarative API: benches,
/// tools and tests fetch specs by name ("fig04_tx_power",
/// "ablation_vertical_links", ...) instead of hand-wiring model stacks.
/// A sweep is a list of specs, each a registered base with some fields
/// changed, run together by SimEngine::run_all.

#include <string>
#include <vector>

#include "wi/sim/scenario.hpp"

namespace wi::sim {

/// Name-keyed collection of validated scenario specs.
class ScenarioRegistry {
 public:
  /// Adds a spec; throws StatusError(kInvalidSpec) on validation
  /// failure or duplicate name.
  void add(ScenarioSpec spec);

  [[nodiscard]] bool contains(const std::string& name) const;

  /// Spec by name; throws StatusError(kInvalidSpec) for unknown names
  /// (the message lists the available scenarios).
  [[nodiscard]] const ScenarioSpec& get(const std::string& name) const;

  /// Registered names in registration order.
  [[nodiscard]] std::vector<std::string> names() const;

  [[nodiscard]] std::size_t size() const { return specs_.size(); }

  /// The preloaded paper registry — every paper artifact: Table I,
  /// Figs. 1-6, 8(a)/8(b) and 10 (BER scan + coding plan), the
  /// quickstart link, the link plan, and the star-mesh / vertical-link
  /// / hybrid-system / ADC-energy / threshold-saturation ablations.
  [[nodiscard]] static const ScenarioRegistry& paper();

 private:
  std::vector<ScenarioSpec> specs_;
};

}  // namespace wi::sim
