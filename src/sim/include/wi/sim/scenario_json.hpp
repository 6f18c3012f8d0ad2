#pragma once
/// \file scenario_json.hpp
/// \brief JSON codec for ScenarioSpec — the serialized form behind the
///        result store's content keys, `wi_run --spec` files and the
///        golden-result provenance records.
///
/// The shared sections (geometry, link, phy, noc) are encoded field by
/// field with snake_case keys and string-named enums; the per-workload
/// payload is dispatched through the WorkloadRegistry and appears under
/// the runner's payload key ("info_rate", "flit", ...). Decoding starts
/// from a default ScenarioSpec: absent keys keep their Table I defaults
/// (so spec files stay minimal), unknown keys are an error (so typos
/// cannot silently produce a default-valued run) — and a payload key
/// belonging to a *different* workload is diagnosed as such.

#include <string>
#include <vector>

#include "wi/common/json.hpp"
#include "wi/sim/scenario.hpp"

namespace wi::sim {

/// Serialize every shared field plus the selected workload's payload.
/// The compact dump of this value is the canonical form used for
/// content hashing.
[[nodiscard]] Json scenario_to_json(const ScenarioSpec& spec);

/// Decode a spec; throws StatusError(kParseError) on unknown keys or
/// type mismatches (and on workload names with no registered runner).
/// The result is NOT validated — call validate() (or hand it to
/// SimEngine, which does).
[[nodiscard]] ScenarioSpec scenario_from_json(const Json& json);

/// Canonical compact serialization: scenario_to_json(spec).dump().
[[nodiscard]] std::string scenario_to_string(const ScenarioSpec& spec);

/// scenario_from_json over parsed text.
[[nodiscard]] ScenarioSpec scenario_from_string(const std::string& text);

/// A spec file's contents: one spec object, or a non-empty array of
/// them, each decoded by scenario_from_json. Throws
/// StatusError(kParseError) on anything else.
[[nodiscard]] std::vector<ScenarioSpec> scenarios_from_string(
    const std::string& text);

/// Enum names used by the codec (also handy for CLI flags).
[[nodiscard]] const char* beamforming_name(core::Beamforming value);
[[nodiscard]] const char* phy_receiver_name(core::PhyReceiver value);
[[nodiscard]] const char* topology_kind_name(TopologySpec::Kind value);
[[nodiscard]] const char* traffic_kind_name(TrafficKind value);
[[nodiscard]] const char* routing_kind_name(RoutingKind value);

}  // namespace wi::sim
