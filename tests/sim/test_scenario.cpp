#include "wi/sim/scenario.hpp"

#include <gtest/gtest.h>

#include "wi/sim/engine.hpp"
#include "wi/sim/workloads/flit_sim.hpp"
#include "wi/sim/workloads/hybrid_system.hpp"
#include "wi/sim/workloads/tx_power_sweep.hpp"

namespace wi::sim {
namespace {

TEST(ScenarioSpec, DefaultsValidate) {
  ScenarioSpec spec;
  spec.name = "defaults";
  EXPECT_TRUE(spec.validate().is_ok());
}

TEST(ScenarioSpec, TableIDefaults) {
  // The declarative defaults must match the paper's Table I budget.
  const ScenarioSpec spec;
  EXPECT_DOUBLE_EQ(spec.link.budget.carrier_freq_hz, 232.5e9);
  EXPECT_DOUBLE_EQ(spec.link.budget.bandwidth_hz, 25e9);
  EXPECT_DOUBLE_EQ(spec.link.budget.rx_noise_figure_db, 10.0);
  EXPECT_DOUBLE_EQ(spec.link.budget.array_gain_db, 12.0);
  EXPECT_DOUBLE_EQ(spec.link.budget.butler_inaccuracy_db, 5.0);
  EXPECT_DOUBLE_EQ(spec.link.budget.rx_temperature_k, 323.0);
  EXPECT_EQ(spec.phy.polarizations, 2u);
  EXPECT_DOUBLE_EQ(spec.phy.bandwidth_hz, 25e9);
}

TEST(ScenarioSpec, RejectsEmptyName) {
  const ScenarioSpec unnamed;  // default name is empty
  EXPECT_EQ(unnamed.validate().code(), StatusCode::kInvalidSpec);
}

TEST(ScenarioSpec, RejectsBadFields) {
  ScenarioSpec spec;
  // std::string temporary: GCC 12 -O3 misfires -Wrestrict on the
  // char* assignment path here.
  spec.name = std::string("x");
  spec.geometry.boards = 0;
  EXPECT_EQ(spec.validate().code(), StatusCode::kInvalidSpec);
  spec.geometry.boards = 2;

  spec.phy.polarizations = 0;
  EXPECT_EQ(spec.validate().code(), StatusCode::kInvalidSpec);
  spec.phy.polarizations = 2;

  spec.workload = "hybrid_system";
  spec.payload<HybridSpec>().config.inter_board_fraction = 1.5;
  EXPECT_EQ(spec.validate().code(), StatusCode::kInvalidSpec);
  spec.payload<HybridSpec>().config.inter_board_fraction = 0.3;
  EXPECT_TRUE(spec.validate().is_ok());

  // An unregistered workload name is itself an invalid spec.
  spec.workload = "no_such_workload";
  EXPECT_EQ(spec.validate().code(), StatusCode::kInvalidSpec);
}

TEST(ScenarioSpec, ValidateMessagesNameTheScenario) {
  ScenarioSpec spec;
  spec.name = "my_scenario";
  spec.workload = "tx_power_sweep";
  spec.payload<TxPowerSpec>().snr_step_db = 0.0;
  const Status status = spec.validate();
  EXPECT_FALSE(status.is_ok());
  EXPECT_NE(status.message().find("my_scenario"), std::string::npos);
}

TEST(ScenarioSpec, DesWorkloadsTakeAWholeRouterDelayFromTheModel) {
  // flit_sim, fault_sweep and noc_latency's DES cross-check run the flit
  // DES on noc.model.router_delay_cycles, which must be whole cycles.
  ScenarioSpec noc_latency;
  noc_latency.name = "delay";
  noc_latency.workload = "noc_latency";
  noc_latency.noc.des_check_rate = 0.1;
  ScenarioSpec fault_sweep = noc_latency;
  fault_sweep.workload = "fault_sweep";
  ScenarioSpec flit = noc_latency;
  flit.workload = "flit_sim";
  for (ScenarioSpec* spec : {&noc_latency, &fault_sweep, &flit}) {
    SCOPED_TRACE(spec->workload);
    for (const double bad : {0.0, 2.5}) {
      spec->noc.model.router_delay_cycles = bad;
      const Status status = spec->validate();
      EXPECT_EQ(status.code(), StatusCode::kInvalidSpec);
      EXPECT_NE(status.message().find("router_delay_cycles"),
                std::string::npos)
          << status.message();
    }
    spec->noc.model.router_delay_cycles = 3.0;
    EXPECT_TRUE(spec->validate().is_ok());
  }
  // Without the cross-check noc_latency is analytic only, and the
  // queueing model takes any delay.
  noc_latency.noc.des_check_rate = 0.0;
  noc_latency.noc.model.router_delay_cycles = 2.5;
  EXPECT_TRUE(noc_latency.validate().is_ok());

  // The delay reaches the DES: at the same seed and load a 3-cycle
  // pipeline injects the same packets and delivers them later.
  SimEngine engine({1});
  auto& payload = flit.payload<FlitSimSpec>();
  payload.injection_rates = {0.05};
  payload.warmup_cycles = 200;
  payload.measure_cycles = 1000;
  payload.drain_cycles = 2000;
  const RunResult three = engine.run(flit);
  flit.noc.model.router_delay_cycles = 2.0;
  const RunResult two = engine.run(flit);
  ASSERT_TRUE(three.ok()) << three.status.to_string();
  ASSERT_TRUE(two.ok()) << two.status.to_string();
  EXPECT_EQ(three.table.cell(0, 4), two.table.cell(0, 4));  // injected
  EXPECT_GT(std::stod(three.table.cell(0, 1)),
            std::stod(two.table.cell(0, 1)));  // latency_cycles
}

TEST(TopologySpec, BuildsDeclaredKinds) {
  TopologySpec spec;
  spec.kind = TopologySpec::Kind::kMesh3d;
  spec.kx = 4;
  spec.ky = 4;
  spec.kz = 4;
  EXPECT_EQ(spec.build().module_count(), 64u);

  spec.kind = TopologySpec::Kind::kStarMesh;
  spec.concentration = 4;
  EXPECT_EQ(spec.build().module_count(), 64u);
}

TEST(TopologySpec, BadDimensionsBecomeStatusError) {
  TopologySpec spec;
  spec.kind = TopologySpec::Kind::kStarMesh;
  spec.concentration = 0;
  try {
    (void)spec.build();
    FAIL() << "expected StatusError";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.status().code(), StatusCode::kInvalidSpec);
  }
}

}  // namespace
}  // namespace wi::sim
