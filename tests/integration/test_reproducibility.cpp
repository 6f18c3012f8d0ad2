/// Determinism contract: every stochastic component reproduces
/// bit-identical results from the same seed — the property that makes
/// each bench regenerate its table exactly.

#include <gtest/gtest.h>

#include "wi/comm/filter_design.hpp"
#include "wi/comm/info_rate.hpp"
#include "wi/common/math.hpp"
#include "wi/fec/ber.hpp"
#include "wi/noc/flit_sim.hpp"
#include "wi/rf/campaign.hpp"
#include "wi/sim/sim.hpp"

namespace wi {
namespace {

TEST(Reproducibility, CampaignBitIdentical) {
  rf::CampaignConfig config;
  config.distances_m = {0.05, 0.1, 0.15};
  config.copper_boards = true;
  config.vna.seed = 42;
  const auto a = rf::run_campaign(config);
  const auto b = rf::run_campaign(config);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].pathloss_db, b[i].pathloss_db);
  }
}

TEST(Reproducibility, SequenceRateBitIdentical) {
  const comm::OneBitOsChannel channel(comm::paper_filter_sequence(),
                                      comm::Constellation::ask(4), 12.0);
  EXPECT_EQ(comm::info_rate_one_bit_sequence(channel, {15000, 5}),
            comm::info_rate_one_bit_sequence(channel, {15000, 5}));
}

TEST(Reproducibility, BerSimulationBitIdentical) {
  const fec::LdpcConvolutionalCode code(fec::EdgeSpreading::paper_example(),
                                        20, 10, 3);
  fec::BerConfig config;
  config.ebn0_db = 2.0;
  config.max_codewords = 8;
  config.min_errors = 1000000;
  config.seed = 9;
  const auto a = fec::simulate_ber_window(code, 4, config);
  const auto b = fec::simulate_ber_window(code, 4, config);
  EXPECT_EQ(a.bit_errors, b.bit_errors);
  EXPECT_EQ(a.bits, b.bits);
}

TEST(Reproducibility, CodeConstructionBitIdentical) {
  const fec::LdpcConvolutionalCode a(fec::EdgeSpreading::paper_example(),
                                     30, 12, 77);
  const fec::LdpcConvolutionalCode b(fec::EdgeSpreading::paper_example(),
                                     30, 12, 77);
  ASSERT_EQ(a.parity_check().rows(), b.parity_check().rows());
  for (std::size_t r = 0; r < a.parity_check().rows(); ++r) {
    EXPECT_EQ(a.parity_check().row(r), b.parity_check().row(r));
  }
  // A different seed gives a different lifting.
  const fec::LdpcConvolutionalCode c(fec::EdgeSpreading::paper_example(),
                                     30, 12, 78);
  bool any_diff = false;
  for (std::size_t r = 0; r < a.parity_check().rows() && !any_diff; ++r) {
    any_diff = a.parity_check().row(r) != c.parity_check().row(r);
  }
  EXPECT_TRUE(any_diff);
}

TEST(Reproducibility, FlitSimBitIdentical) {
  const noc::Topology topo = noc::Topology::mesh_2d(4, 4);
  const noc::DimensionOrderRouting routing;
  const noc::TrafficPattern traffic = noc::TrafficPattern::uniform(16);
  noc::FlitSimConfig config;
  config.warmup_cycles = 500;
  config.measure_cycles = 2000;
  config.seed = 13;
  const auto a = noc::simulate_network(topo, routing, traffic, 0.1, config);
  const auto b = noc::simulate_network(topo, routing, traffic, 0.1, config);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.injected, b.injected);
  EXPECT_EQ(a.mean_latency_cycles, b.mean_latency_cycles);
}

TEST(Reproducibility, ParallelSweepMatchesSingleThreaded) {
  // The sim acceptance contract: a registry-driven sweep of 100 specs
  // run through the work-stealing parallel runner reproduces the
  // single-threaded results cell-for-cell, and repeated receiver
  // configurations are served from the PhyCurveCache.
  const sim::ScenarioSpec base =
      sim::ScenarioRegistry::paper().get("quickstart_link_rate");
  std::vector<sim::ScenarioSpec> specs;
  for (const double ptx : linspace(0.0, 18.0, 10)) {
    for (const double sep : linspace(60.0, 150.0, 10)) {
      sim::ScenarioSpec spec = base;
      spec.link.ptx_dbm = ptx;
      spec.geometry.separation_mm = sep;
      specs.push_back(std::move(spec));
    }
  }

  sim::SimEngine serial_engine;
  const auto serial = serial_engine.run_all(specs, 1);
  sim::SimEngine parallel_engine;
  const auto parallel = parallel_engine.run_all(specs, 4);

  ASSERT_EQ(serial.size(), 100u);
  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_TRUE(serial[i].ok()) << serial[i].status.to_string();
    EXPECT_TRUE(serial[i].status == parallel[i].status);
    EXPECT_TRUE(serial[i].table == parallel[i].table);
    EXPECT_EQ(serial[i].notes, parallel[i].notes);
  }

  // 100 specs share one receiver configuration: one build, the rest
  // are cache hits — at both thread counts.
  EXPECT_EQ(serial_engine.phy_cache().misses(), 1u);
  EXPECT_GE(serial_engine.phy_cache().hits(), 99u);
  EXPECT_EQ(parallel_engine.phy_cache().misses(), 1u);
  EXPECT_GE(parallel_engine.phy_cache().hits(), 99u);
}

TEST(Reproducibility, ParallelRunAllBitIdentical) {
  // Scenario campaigns seed their own RNGs, so whole-scenario results
  // are thread-count invariant too (incl. the stochastic Fig. 1 run).
  const auto& registry = sim::ScenarioRegistry::paper();
  const std::vector<sim::ScenarioSpec> specs = {
      registry.get("fig01_pathloss"),
      registry.get("fig04_tx_power"),
      registry.get("fig08a_star_mesh_4x4c4"),
      registry.get("ablation_hybrid_system"),
  };
  sim::SimEngine engine_a;
  sim::SimEngine engine_b;
  const auto serial = engine_a.run_all(specs, 1);
  const auto parallel = engine_b.run_all(specs, 4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].scenario, parallel[i].scenario);
    EXPECT_TRUE(serial[i].status == parallel[i].status);
    EXPECT_TRUE(serial[i].table == parallel[i].table);
    EXPECT_EQ(serial[i].notes, parallel[i].notes);
  }
}

TEST(Reproducibility, FilterOptimizerBitIdentical) {
  comm::FilterDesignOptions options;
  options.max_evals = 150;
  options.restarts = 1;
  const comm::Constellation c4 = comm::Constellation::ask(4);
  const auto a = comm::optimize_filter_symbolwise(c4, options);
  const auto b = comm::optimize_filter_symbolwise(c4, options);
  EXPECT_EQ(a.taps(), b.taps());
}

}  // namespace
}  // namespace wi
