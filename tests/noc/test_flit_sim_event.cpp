/// \file test_flit_sim_event.cpp
/// \brief Event-core specifics: wheel quiescence, turns only where
///        there is work, and the config checks simulate_network makes.
///
/// The golden tests pin the core against the committed result files and
/// tests/perf/test_flit_sim_oracle.cpp pins it against the cycle-stepped
/// loop it replaced; this file pins what only the event core has — the
/// calendar wheel and its turn count.

#include "wi/noc/flit_sim.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

namespace wi::noc {
namespace {

FlitSimConfig base_config() {
  FlitSimConfig config;
  config.warmup_cycles = 500;
  config.measure_cycles = 3000;
  config.drain_cycles = 3000;
  return config;
}

TEST(FlitSimEvent, ZeroTrafficTerminatesWithoutTurningARouter) {
  const Topology t = Topology::mesh_2d(4, 4);
  const DimensionOrderRouting routing;
  FlitSimConfig config = base_config();
  const auto result = simulate_network(t, routing,
                                       TrafficPattern::uniform(16), 0.0,
                                       config);
  // No injections -> nothing is ever scheduled on the wheel, so the
  // run completes without executing a single router turn. A
  // cycle-stepped loop would have visited 16 routers x 6500 cycles.
  EXPECT_EQ(result.turns_executed, 0u);
  EXPECT_EQ(result.injected, 0u);
  EXPECT_EQ(result.delivered, 0u);
  EXPECT_TRUE(result.stable);
}

TEST(FlitSimEvent, TurnsExecutedStaysFarBelowCycleSteppedWork) {
  const Topology t = Topology::mesh_2d(8, 8);
  const DimensionOrderRouting routing;
  FlitSimConfig config = base_config();
  const auto result = simulate_network(t, routing,
                                       TrafficPattern::uniform(64), 0.01,
                                       config);
  EXPECT_GT(result.turns_executed, 0u);
  // The cycle-stepped equivalent is routers * total cycles. At 1%
  // load the wheel should skip the overwhelming majority of them.
  const std::uint64_t cycle_stepped =
      64ull * (config.warmup_cycles + config.measure_cycles +
               config.drain_cycles);
  EXPECT_LT(result.turns_executed, cycle_stepped / 2);
}

TEST(FlitSimEvent, FutureOfferDoesNotTurnItsRouterEarly) {
  // One router, one module sending to itself: every offer ejects the
  // cycle it is drawn, and between offers the router has nothing to do.
  // So the only turns are the offer cycles — a router whose next work
  // is a later offer must not be polled before that cycle.
  const Topology t = Topology::star_mesh(1, 1, 1);
  const DimensionOrderRouting routing;
  const TrafficPattern to_self(std::vector<double>{1.0}, 1);
  FlitSimConfig config = base_config();
  config.warmup_cycles = 0;
  for (const double rate : {0.002, 0.02, 0.2}) {
    SCOPED_TRACE(testing::Message() << "rate=" << rate);
    const auto result = simulate_network(t, routing, to_self, rate, config);
    EXPECT_GT(result.injected, 0u);
    EXPECT_EQ(result.delivered, result.injected);
    EXPECT_EQ(result.turns_executed, result.injected);
  }
}

TEST(FlitSimEvent, RouterDelayMustBeAWholeNumberOfCycles) {
  const Topology t = Topology::mesh_2d(4, 4);
  const DimensionOrderRouting routing;
  const TrafficPattern traffic = TrafficPattern::uniform(16);
  for (const double delay : {0.0, 0.5, 2.5, -1.0, 1e6}) {
    SCOPED_TRACE(testing::Message() << "delay=" << delay);
    EXPECT_FALSE(validate_router_delay(delay).is_ok());
    FlitSimConfig config = base_config();
    config.router_delay_cycles = delay;
    try {
      (void)simulate_network(t, routing, traffic, 0.1, config);
      ADD_FAILURE() << "expected StatusError";
    } catch (const StatusError& e) {
      EXPECT_EQ(e.status().code(), StatusCode::kInvalidSpec);
    }
  }
  // A longer whole-cycle pipeline runs and costs latency.
  FlitSimConfig two = base_config();
  FlitSimConfig three = base_config();
  three.router_delay_cycles = 3.0;
  ASSERT_TRUE(validate_router_delay(3.0).is_ok());
  const auto a = simulate_network(t, routing, traffic, 0.1, two);
  const auto b = simulate_network(t, routing, traffic, 0.1, three);
  EXPECT_EQ(a.injected, b.injected);
  EXPECT_GT(b.delivered, 0u);
  EXPECT_GT(b.mean_latency_cycles, a.mean_latency_cycles);
}

TEST(FlitSimEvent, PackingLimitsThrowStatusError) {
  const Topology t = Topology::mesh_2d(2, 2);
  const DimensionOrderRouting routing;
  FlitSimConfig config = base_config();
  config.buffer_depth = std::size_t{1} << 16;
  try {
    (void)simulate_network(t, routing, TrafficPattern::uniform(4), 0.1,
                           config);
    ADD_FAILURE() << "expected StatusError";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.status().code(), StatusCode::kInvalidSpec);
  }
}

}  // namespace
}  // namespace wi::noc
