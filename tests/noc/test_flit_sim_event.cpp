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
#include <string>
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

TEST(FlitSimEvent, ScheduleMatchesPinnedCounts) {
  // Turn counts, delivered/injected counts and the exact latency mean,
  // as the event core produced them before the one-pass turn: a change
  // in which router turns on which cycle shows up in turns_executed even
  // when every statistic happens to survive it.
  using wi::fault::FaultEvent;
  wi::fault::FaultSchedule faults;
  faults.events.push_back({FaultEvent::Kind::kLink, 3, 600});
  faults.events.push_back({FaultEvent::Kind::kRouter, 5, 2000});
  faults.events.push_back({FaultEvent::Kind::kRouter, 0, 4000});
  struct Case {
    Topology topology;
    TrafficPattern traffic;
    double rate;
    std::uint64_t seed;
    double router_delay;
    std::size_t buffer_depth;
    wi::fault::FaultSchedule faults;
  };
  const auto uniform = TrafficPattern::implicit_uniform;
  const std::vector<Case> cases = {
      {Topology::mesh_2d(8, 8), uniform(64), 0.02, 1, 2, 8, {}},
      {Topology::mesh_2d(8, 8), uniform(64), 0.36, 2, 2, 8, {}},
      {Topology::mesh_3d(4, 4, 4), uniform(64), 0.04, 3, 2, 8, {}},
      {Topology::mesh_3d(4, 4, 4), uniform(64), 0.72, 4, 2, 8, {}},
      {Topology::star_mesh(4, 4, 4), uniform(64), 0.01, 5, 2, 8, {}},
      {Topology::star_mesh(4, 4, 4), uniform(64), 0.18, 6, 2, 8, {}},
      {Topology::star_mesh_irl(4, 4, 4, 2), uniform(64), 0.3, 7, 2, 8, {}},
      {Topology::mesh_2d(4, 4), uniform(16), 0.6, 8, 2, 8, faults},
      {Topology::mesh_2d(4, 4), uniform(16), 0.3, 9, 1, 8, {}},
      {Topology::mesh_2d(4, 4), uniform(16), 0.3, 9, 7, 8, {}},
      {Topology::mesh_3d(4, 4, 4), uniform(64), 0.3, 10, 2, 1, {}},
      {Topology::mesh_2d(8, 8), TrafficPattern::uniform(64), 0.2, 11, 2, 8,
       {}},
      {Topology::star_mesh(4, 4, 4),
       TrafficPattern::implicit_hotspot(64, 9, 0.2), 0.1, 12, 2, 8, {}},
  };
  struct Pinned {
    const char* name;
    std::uint64_t turns;
    std::size_t delivered;
    std::size_t injected;
    double mean_latency;
    std::size_t dropped;
    std::size_t unreachable;
  };
  const Pinned pinned[] = {
      {"mesh2d_8x8 light", 26919u, 3859u, 3859u, 0x1.9475055f97fb4p+3, 0u, 0u},
      {"mesh2d_8x8 near saturation", 214342u, 69182u, 69182u, 0x1.f82044713b55p+3, 0u, 0u},
      {"mesh3d_4x4x4 light", 40019u, 7677u, 7677u, 0x1.35221d02e6b0bp+3, 0u, 0u},
      {"mesh3d_4x4x4 near saturation", 225334u, 138321u, 138321u, 0x1.419a122241f8fp+4, 0u, 0u},
      {"star_mesh_4x4c4 light", 7581u, 1905u, 1905u, 0x1.cbf5c970bf5c9p+2, 0u, 0u},
      {"star_mesh_4x4c4 near saturation", 55252u, 34395u, 34395u, 0x1.6bfd59ae153ep+3, 0u, 0u},
      {"star_mesh_irl bandwidth 2", 79197u, 57564u, 57564u, 0x1.9a79ca19825ffp+9, 0u, 0u},
      {"mesh2d_4x4 link and router faults", 92172u, 23186u, 28885u, 0x1.19e920d61c22p+10, 1960u, 1585u},
      {"mesh2d_4x4 router delay 1", 41316u, 14344u, 14344u, 0x1.02fc251f44ad1p+2, 0u, 0u},
      {"mesh2d_4x4 router delay 7", 41234u, 14344u, 14344u, 0x1.a0e9de970efdep+4, 0u, 0u},
      {"mesh3d_4x4x4 buffer depth 1", 338376u, 57357u, 57376u, 0x1.f77b968ab118p+9, 0u, 0u},
      {"mesh2d_8x8 dense uniform", 174545u, 38276u, 38276u, 0x1.a9798a04de7a8p+3, 0u, 0u},
      {"star_mesh_4x4c4 hotspot", 76502u, 19154u, 19154u, 0x1.2217ebaf45f45p+10, 0u, 0u},
  };
  ASSERT_EQ(cases.size(), std::size(pinned));
  const DimensionOrderRouting routing;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const Case& c = cases[i];
    const Pinned& want = pinned[i];
    SCOPED_TRACE(want.name);
    FlitSimConfig config = base_config();
    config.seed = c.seed;
    config.router_delay_cycles = c.router_delay;
    config.buffer_depth = c.buffer_depth;
    const FlitSimResult got = simulate_network(c.topology, routing, c.traffic,
                                               c.rate, config, c.faults);
    EXPECT_EQ(got.turns_executed, want.turns);
    EXPECT_EQ(got.delivered, want.delivered);
    EXPECT_EQ(got.injected, want.injected);
    EXPECT_EQ(got.mean_latency_cycles, want.mean_latency);
    EXPECT_EQ(got.dropped, want.dropped);
    EXPECT_EQ(got.unreachable, want.unreachable);
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
