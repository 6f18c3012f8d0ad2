#include "wi/sim/scenario_json.hpp"

#include <gtest/gtest.h>

#include "wi/sim/registry.hpp"
#include "wi/sim/workloads/ldpc_latency.hpp"
#include "wi/sim/workloads/nics_stack.hpp"

namespace wi::sim {
namespace {

TEST(ScenarioJson, RoundTripsEveryRegistryScenario) {
  const ScenarioRegistry& registry = ScenarioRegistry::paper();
  ASSERT_GE(registry.size(), 14u);
  for (const auto& name : registry.names()) {
    const ScenarioSpec& spec = registry.get(name);
    const std::string canonical = scenario_to_string(spec);
    const ScenarioSpec decoded = scenario_from_string(canonical);
    // Field-for-field equality via the canonical serialization (the
    // spec struct has no operator==; the codec covers every field).
    EXPECT_EQ(scenario_to_string(decoded), canonical) << name;
    EXPECT_TRUE(decoded.validate().is_ok()) << name;
  }
}

TEST(ScenarioJson, MissingKeysKeepDefaults) {
  const ScenarioSpec decoded = scenario_from_string(
      R"({"name": "sparse", "workload": "noc_latency",
          "noc": {"topology": {"kind": "mesh3d", "kz": 4}}})");
  EXPECT_EQ(decoded.name, "sparse");
  EXPECT_EQ(decoded.workload, "noc_latency");
  EXPECT_EQ(decoded.noc.topology.kind, TopologySpec::Kind::kMesh3d);
  EXPECT_EQ(decoded.noc.topology.kz, 4u);
  // Untouched fields carry the Table I defaults.
  const ScenarioSpec defaults;
  EXPECT_EQ(decoded.noc.topology.kx, defaults.noc.topology.kx);
  EXPECT_DOUBLE_EQ(decoded.link.budget.carrier_freq_hz,
                   defaults.link.budget.carrier_freq_hz);
  EXPECT_EQ(decoded.phy.receiver, defaults.phy.receiver);
}

TEST(ScenarioJson, UnknownKeysAreErrors) {
  EXPECT_THROW(
      (void)scenario_from_string(R"({"name": "x", "wrkload": "link_rate"})"),
      StatusError);
  EXPECT_THROW((void)scenario_from_string(
                   R"({"name": "x", "geometry": {"board": 3}})"),
               StatusError);
}

TEST(ScenarioJson, UnknownEnumNamesAreErrors) {
  EXPECT_THROW(
      (void)scenario_from_string(R"({"name": "x", "workload": "warp"})"),
      StatusError);
  EXPECT_THROW((void)scenario_from_string(
                   R"({"name": "x", "phy": {"receiver": "two_bit"}})"),
               StatusError);
}

TEST(ScenarioJson, NonIntegerCountsAreErrors) {
  EXPECT_THROW((void)scenario_from_string(
                   R"({"name": "x", "geometry": {"boards": 2.5}})"),
               StatusError);
  EXPECT_THROW(
      (void)scenario_from_string(
          R"({"name": "x", "workload": "pathloss_campaign",
              "pathloss": {"seed": -1}})"),
      StatusError);
}

TEST(ScenarioJson, EncodesEnumsAsStableNames) {
  ScenarioSpec spec;
  spec.name = "enums";
  spec.workload = "nics_stack";
  spec.payload<NicsSpec>().config.tech = core::VerticalLinkTech::kInductive;
  spec.noc.routing = RoutingKind::kShortestPath;
  spec.noc.traffic = TrafficKind::kHotspot;
  const Json json = scenario_to_json(spec);
  EXPECT_EQ(json.at("workload").as_string(), "nics_stack");
  EXPECT_EQ(json.at("nics").at("tech").as_string(), "inductive");
  EXPECT_EQ(json.at("noc").at("routing").as_string(), "shortest_path");
  EXPECT_EQ(json.at("noc").at("traffic").as_string(), "hotspot");
}

TEST(ScenarioJson, TornadoRoundTripAndRetiredTrafficModeKey) {
  ScenarioSpec spec;
  spec.name = "tornado";
  spec.workload = "noc_latency";
  spec.noc.topology.kind = TopologySpec::Kind::kMesh2d;
  spec.noc.topology.kx = 8;
  spec.noc.topology.ky = 8;
  spec.noc.traffic = TrafficKind::kTornado;
  const Json json = scenario_to_json(spec);
  EXPECT_EQ(json.at("noc").at("traffic").as_string(), "tornado");
  EXPECT_EQ(json.at("noc").find("traffic_mode"), nullptr);
  const ScenarioSpec decoded =
      scenario_from_string(scenario_to_string(spec));
  EXPECT_EQ(decoded.noc.traffic, TrafficKind::kTornado);
  EXPECT_TRUE(decoded.validate().is_ok());
  // Traffic is always the analytic pattern; the retired representation
  // switch is an unknown key like any other, whatever its value.
  for (const char* mode : {"dense", "implicit"}) {
    SCOPED_TRACE(mode);
    try {
      (void)scenario_from_string(
          std::string(R"({"name": "x", "noc": {"traffic_mode": ")") + mode +
          R"("}})");
      ADD_FAILURE() << "expected StatusError";
    } catch (const StatusError& e) {
      EXPECT_EQ(e.status().code(), StatusCode::kParseError);
      EXPECT_NE(e.status().message().find("unknown key 'traffic_mode'"),
                std::string::npos)
          << e.status().message();
    }
  }
}

TEST(ScenarioJson, LdpcCurvesRoundTrip) {
  ScenarioSpec spec;
  spec.name = "ldpc";
  spec.workload = "ldpc_latency";
  auto& ldpc = spec.payload<LdpcLatencySpec>();
  ldpc.cc_curves = {{25, 3, 8}, {80, 2, 4}};
  ldpc.bc_liftings = {64};
  const ScenarioSpec decoded =
      scenario_from_string(scenario_to_string(spec));
  const auto& decoded_ldpc = decoded.payload<LdpcLatencySpec>();
  ASSERT_EQ(decoded_ldpc.cc_curves.size(), 2u);
  EXPECT_EQ(decoded_ldpc.cc_curves[1].lifting, 80u);
  EXPECT_EQ(decoded_ldpc.cc_curves[1].window_hi, 4u);
  ASSERT_EQ(decoded_ldpc.bc_liftings.size(), 1u);
  EXPECT_EQ(decoded_ldpc.bc_liftings[0], 64u);
}

TEST(ScenarioJson, SpecArraysDecodeElementByElement) {
  const std::string first =
      R"({"name": "a", "workload": "hybrid_system",
          "hybrid": {"inter_board_fraction": 0.1}})";
  const std::string second =
      R"({"name": "b", "workload": "noc_latency",
          "noc": {"topology": {"kind": "mesh3d", "kz": 4}}})";
  const std::vector<ScenarioSpec> specs =
      scenarios_from_string("[" + first + ", " + second + "]");
  ASSERT_EQ(specs.size(), 2u);
  EXPECT_EQ(scenario_to_string(specs[0]),
            scenario_to_string(scenario_from_string(first)));
  EXPECT_EQ(scenario_to_string(specs[1]),
            scenario_to_string(scenario_from_string(second)));

  // A lone object is a one-spec file.
  const std::vector<ScenarioSpec> single = scenarios_from_string(first);
  ASSERT_EQ(single.size(), 1u);
  EXPECT_EQ(scenario_to_string(single[0]), scenario_to_string(specs[0]));
}

TEST(ScenarioJson, MalformedSpecArraysAreParseErrors) {
  const auto expect_parse_error = [](const std::string& text) {
    try {
      (void)scenarios_from_string(text);
      ADD_FAILURE() << "expected StatusError for " << text;
    } catch (const StatusError& e) {
      EXPECT_EQ(e.status().code(), StatusCode::kParseError) << text;
    }
  };
  expect_parse_error("[]");
  expect_parse_error(R"([{"name": "a"}, 3])");
  expect_parse_error(R"("fig01_pathloss")");
  expect_parse_error(R"([{"name": "a"}, {"name": "b", "wrkload": "x"}])");
}

}  // namespace
}  // namespace wi::sim
