#include "wi/sim/engine.hpp"

#include <gtest/gtest.h>

#include <string>

#include "wi/sim/registry.hpp"
#include "wi/sim/workloads/hybrid_system.hpp"

namespace wi::sim {
namespace {

TEST(Registry, PaperScenariosAreComplete) {
  const auto& registry = ScenarioRegistry::paper();
  EXPECT_GE(registry.size(), 10u);
  for (const std::string name :
       {"table1_link_budget", "fig01_pathloss", "fig04_tx_power",
        "quickstart_link_rate", "board_links_plan", "fig08a_mesh2d_8x8",
        "fig08a_star_mesh_4x4c4", "fig08a_mesh3d_4x4x4",
        "fig08b_mesh2d_32x16", "fig08b_mesh3d_8x8x8",
        "ablation_star_mesh_irl", "ablation_vertical_links",
        "ablation_hybrid_system", "fig10_coding_plan"}) {
    EXPECT_TRUE(registry.contains(name)) << name;
    EXPECT_TRUE(registry.get(name).validate().is_ok()) << name;
  }
}

TEST(Registry, UnknownNameThrowsWithListing) {
  try {
    (void)ScenarioRegistry::paper().get("no_such_scenario");
    FAIL() << "expected StatusError";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.status().code(), StatusCode::kInvalidSpec);
    EXPECT_NE(e.status().message().find("fig04_tx_power"),
              std::string::npos);
  }
}

TEST(Registry, RejectsDuplicatesAndInvalid) {
  ScenarioRegistry registry;
  ScenarioSpec spec;
  spec.name = "a";
  registry.add(spec);
  EXPECT_THROW(registry.add(spec), StatusError);
  ScenarioSpec bad;
  bad.name = "";
  EXPECT_THROW(registry.add(bad), StatusError);
}

TEST(SimEngine, TxPowerSweepSchemaAndAnchors) {
  SimEngine engine;
  const RunResult result =
      engine.run(ScenarioRegistry::paper().get("fig04_tx_power"));
  ASSERT_TRUE(result.ok()) << result.status.to_string();
  EXPECT_EQ(result.table.headers(), workload_headers("tx_power_sweep"));
  ASSERT_EQ(result.table.rows(), 8u);  // SNR 0..35 step 5
  // Longest-link curves differ by the 5 dB Butler penalty.
  const double longest = std::stod(result.table.cell(0, 2));
  const double butler = std::stod(result.table.cell(0, 3));
  EXPECT_NEAR(butler - longest, 5.0, 1e-9);
}

TEST(SimEngine, LinkBudgetTableMatchesTableI) {
  SimEngine engine;
  const RunResult result =
      engine.run(ScenarioRegistry::paper().get("table1_link_budget"));
  ASSERT_TRUE(result.ok());
  // Pathloss anchors PL(0.1 m) = 59.8 dB, PL(0.3 m) = 69.3 dB.
  EXPECT_NEAR(std::stod(result.table.cell(2, 2)), 59.8, 0.1);
  EXPECT_NEAR(std::stod(result.table.cell(3, 2)), 69.3, 0.1);
}

TEST(SimEngine, InvalidSpecIsReportedNotThrown) {
  SimEngine engine;
  ScenarioSpec spec;
  spec.name = "bad";
  spec.phy.polarizations = 0;
  const RunResult result = engine.run(spec);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status.code(), StatusCode::kInvalidSpec);
  EXPECT_EQ(result.table.rows(), 0u);
}

TEST(SimEngine, UnreachableRouteSurfacesAsStatus) {
  // Dimension-order routing cannot serve a 3D mesh whose vertical links
  // exist only on every second column: the route() call throws a
  // structured StatusError which the engine converts into the result.
  SimEngine engine;
  ScenarioSpec spec;
  spec.name = "partial_vertical_dor";
  spec.workload = "noc_latency";
  spec.noc.topology.kind = TopologySpec::Kind::kPartialVertical3d;
  spec.noc.topology.kx = 4;
  spec.noc.topology.ky = 4;
  spec.noc.topology.kz = 4;
  spec.noc.topology.tsv_period = 2;
  spec.noc.routing = RoutingKind::kDimensionOrder;
  const RunResult result = engine.run(spec);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status.code(), StatusCode::kUnreachableRoute);

  // The same topology is routable with BFS shortest-path.
  spec.noc.routing = RoutingKind::kShortestPath;
  const RunResult routed = engine.run(spec);
  EXPECT_TRUE(routed.ok()) << routed.status.to_string();
  EXPECT_GT(routed.table.rows(), 0u);
}

TEST(SimEngine, SweepSurvivesBadGridPoints) {
  // One spec of the sweep has an unroutable topology; run_all must
  // still return every result, that one as a Status, in input order.
  SimEngine engine;
  ScenarioSpec base;
  base.name = "sweep";
  base.workload = "noc_latency";
  base.noc.topology.kind = TopologySpec::Kind::kPartialVertical3d;
  base.noc.topology.kx = 2;
  base.noc.topology.ky = 2;
  base.noc.topology.kz = 2;
  base.noc.injection_rates = {0.05};
  std::vector<ScenarioSpec> specs;
  for (const std::size_t period : {1, 2}) {
    ScenarioSpec spec = base;
    spec.name += "/period=" + std::to_string(period);
    spec.noc.topology.tsv_period = period;
    specs.push_back(std::move(spec));
  }
  const std::vector<RunResult> results = engine.run_all(specs);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].scenario, "sweep/period=1");
  EXPECT_TRUE(results[0].ok()) << results[0].status.to_string();
  EXPECT_GT(results[0].table.rows(), 0u);
  EXPECT_EQ(results[1].scenario, "sweep/period=2");
  EXPECT_EQ(results[1].status.code(), StatusCode::kUnreachableRoute);
  EXPECT_EQ(results[1].table.rows(), 0u);
}

TEST(SimEngine, RunAllPreservesInputOrder) {
  const auto& registry = ScenarioRegistry::paper();
  SimEngine engine;
  const auto results = engine.run_all({
      registry.get("fig04_tx_power"),
      registry.get("table1_link_budget"),
  });
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].scenario, "fig04_tx_power");
  EXPECT_EQ(results[1].scenario, "table1_link_budget");
}

TEST(SimEngine, HybridComparisonFavoursWirelessAtHighInterTraffic) {
  SimEngine engine;
  ScenarioSpec spec = ScenarioRegistry::paper().get("ablation_hybrid_system");
  spec.payload<HybridSpec>().config.inter_board_fraction = 0.5;
  const RunResult result = engine.run(spec);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.table.rows(), 1u);
  // capacity_gain column: wireless beats the backplane spine.
  EXPECT_GT(std::stod(result.table.cell(0, 4)), 1.0);
}

}  // namespace
}  // namespace wi::sim
