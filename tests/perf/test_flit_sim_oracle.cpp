/// \file test_flit_sim_oracle.cpp
/// \brief Differential tests: the event core in wi::noc::simulate_network
///        against the cycle-stepped loop it replaced
///        (wi::perf_baseline::simulate_network_legacy), bit for bit.
///
/// The event core draws the injection process as it runs and only
/// turns routers with work; the legacy loop draws the same RNG sequence
/// cycle by cycle and visits every router every cycle. Any divergence
/// in draw order, arbitration order, wake bookkeeping or fault handling
/// shows up as a different count, latency sum or Status row here.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>

#include "baseline_kernels.hpp"
#include "wi/common/fault.hpp"
#include "wi/noc/flit_sim.hpp"
#include "wi/noc/routing.hpp"

namespace {

using wi::fault::FaultEvent;
using wi::fault::FaultSchedule;
using wi::noc::DimensionOrderRouting;
using wi::noc::FlitSimConfig;
using wi::noc::FlitSimResult;
using wi::noc::Routing;
using wi::noc::ShortestPathRouting;
using wi::noc::Topology;
using wi::noc::TrafficPattern;

FlitSimConfig short_config(std::uint64_t seed) {
  FlitSimConfig config;
  config.warmup_cycles = 500;
  config.measure_cycles = 3000;
  config.drain_cycles = 3000;
  config.seed = seed;
  return config;
}

/// Every statistic the goldens pin plus the fault accounting;
/// turns_executed is a diagnostic the legacy loop does not keep.
void expect_identical(const FlitSimResult& event, const FlitSimResult& legacy) {
  EXPECT_EQ(event.delivered, legacy.delivered);
  EXPECT_EQ(event.injected, legacy.injected);
  EXPECT_EQ(event.mean_latency_cycles, legacy.mean_latency_cycles);
  EXPECT_EQ(event.delivered_per_cycle, legacy.delivered_per_cycle);
  EXPECT_EQ(event.stable, legacy.stable);
  EXPECT_EQ(event.dropped, legacy.dropped);
  EXPECT_EQ(event.unreachable, legacy.unreachable);
  EXPECT_EQ(event.dead_links, legacy.dead_links);
  EXPECT_EQ(event.dead_routers, legacy.dead_routers);
  ASSERT_EQ(event.route_failures.size(), legacy.route_failures.size());
  for (std::size_t i = 0; i < event.route_failures.size(); ++i) {
    EXPECT_EQ(event.route_failures[i], legacy.route_failures[i]) << i;
  }
}

FlitSimResult compare(const Topology& topology, const Routing& routing,
                      const TrafficPattern& traffic, double rate,
                      const FlitSimConfig& config,
                      const FaultSchedule& faults = {}) {
  const FlitSimResult event = wi::noc::simulate_network(
      topology, routing, traffic, rate, config, faults);
  const FlitSimResult legacy = wi::perf_baseline::simulate_network_legacy(
      topology, routing, traffic, rate, config, faults);
  expect_identical(event, legacy);
  return event;
}

TEST(FlitSimOracle, NocSmallNetworksFromLightLoadToNearSaturation) {
  // The benchmark's three Fig. 8(a) networks at its light and
  // near-saturation rates and one in between.
  struct Network {
    const char* name;
    Topology topology;
    double light, mid, near_saturation;
  };
  const Network networks[] = {
      {"mesh2d_8x8", Topology::mesh_2d(8, 8), 0.02, 0.2, 0.36},
      {"mesh3d_4x4x4", Topology::mesh_3d(4, 4, 4), 0.04, 0.38, 0.72},
      {"star_mesh_4x4c4", Topology::star_mesh(4, 4, 4), 0.01, 0.1, 0.18},
  };
  const DimensionOrderRouting routing;
  std::uint64_t seed = 1;
  for (const Network& net : networks) {
    const TrafficPattern traffic =
        TrafficPattern::uniform(net.topology.module_count());
    for (const double rate : {net.light, net.mid, net.near_saturation}) {
      SCOPED_TRACE(testing::Message() << net.name << " @" << rate);
      const FlitSimResult got =
          compare(net.topology, routing, traffic, rate, short_config(seed++));
      EXPECT_GT(got.delivered, 0u);
    }
  }
}

TEST(FlitSimOracle, DenseTrafficPatternsAndRoutings) {
  const DimensionOrderRouting dor;
  const ShortestPathRouting sp;
  const Topology mesh3d = Topology::mesh_3d(4, 4, 4);
  const Topology star = Topology::star_mesh(4, 4, 4);
  const Topology mesh2d = Topology::mesh_2d(5, 3);
  compare(mesh3d, dor, TrafficPattern::transpose(64), 0.15, short_config(5));
  compare(mesh3d, sp, TrafficPattern::transpose(64), 0.15, short_config(5));
  compare(star, dor, TrafficPattern::hotspot(64, 0, 0.3), 0.1,
          short_config(9));
  compare(mesh2d, sp, TrafficPattern::uniform(15), 0.25, short_config(7));
  // Bandwidth > 1 links take the per-output budget array, not the
  // one-word mask.
  compare(Topology::star_mesh_irl(4, 4, 4, 2), dor,
          TrafficPattern::uniform(64), 0.3, short_config(3));
  // A saturated source: offers pile up in the source FIFOs.
  compare(Topology::mesh_2d(4, 4), dor, TrafficPattern::uniform(16), 0.9,
          short_config(3));
}

TEST(FlitSimOracle, ImplicitTrafficPatterns) {
  const Topology t = Topology::mesh_2d(4, 4);
  const DimensionOrderRouting routing;
  const TrafficPattern patterns[] = {
      TrafficPattern::implicit_uniform(16),
      TrafficPattern::implicit_transpose(16),
      TrafficPattern::implicit_hotspot(16, 5, 0.3),
  };
  for (const TrafficPattern& traffic : patterns) {
    SCOPED_TRACE(testing::Message()
                 << "kind=" << static_cast<int>(traffic.kind()));
    const FlitSimResult got =
        compare(t, routing, traffic, 0.15, short_config(1));
    EXPECT_GT(got.delivered, 0u);
  }
  compare(Topology::mesh_2d(5, 3), routing,
          TrafficPattern::implicit_hotspot(15, 7, 0.25), 0.25,
          short_config(9));
}

TEST(FlitSimOracle, SingleRouterMesh) {
  // One router carrying four modules, zero links: every flit ejects
  // where it is injected (the eject-at-source path, empty ring arrays).
  const FlitSimResult got =
      compare(Topology::star_mesh(1, 1, 4), DimensionOrderRouting{},
              TrafficPattern::uniform(4), 0.4, short_config(1));
  EXPECT_GT(got.delivered, 0u);
}

TEST(FlitSimOracle, LinkDeathsMidRun) {
  const Topology t = Topology::mesh_2d(5, 3);
  const DimensionOrderRouting routing;
  FaultSchedule faults;
  faults.events.push_back({FaultEvent::Kind::kLink, 3, 600});
  faults.events.push_back({FaultEvent::Kind::kLink, 9, 1801});
  // Both directions of one link: a severed pair needs a detour.
  faults.events.push_back({FaultEvent::Kind::kLink, 0, 2400});
  faults.events.push_back({FaultEvent::Kind::kLink, 1, 2400});
  const FlitSimResult got = compare(t, routing, TrafficPattern::uniform(15),
                                    0.25, short_config(11), faults);
  EXPECT_EQ(got.dead_links, 4u);
  EXPECT_GT(got.dropped, 0u);
}

TEST(FlitSimOracle, RouterDeathWithQueuedAndFutureOffers) {
  // A 4x4 mesh driven past saturation: every source FIFO is backed up
  // when router 5 dies mid-window, so its death flushes queued offers
  // and every later draw at its modules is a dropped offer. Router 0
  // (a corner) dies in the drain window, after the last draw.
  const Topology t = Topology::mesh_2d(4, 4);
  const DimensionOrderRouting routing;
  const FlitSimConfig config = short_config(13);
  FaultSchedule faults;
  faults.events.push_back({FaultEvent::Kind::kRouter, 5, 2000});
  faults.events.push_back({FaultEvent::Kind::kRouter, 0, 4000});
  const FlitSimResult got = compare(t, routing, TrafficPattern::uniform(16),
                                    0.6, config, faults);
  EXPECT_EQ(got.dead_routers, 2u);
  EXPECT_GT(got.unreachable, 0u);
  EXPECT_FALSE(got.route_failures.empty());
  // Router 5's module keeps offering after its death: those measured
  // offers are counted as injected and dropped.
  EXPECT_GT(got.dropped, static_cast<std::size_t>(0.6 * 1000 * 0.9));
}

TEST(FlitSimOracle, FaultsBeforeWarmupAndAfterTheHorizon) {
  const Topology t = Topology::star_mesh(4, 4, 4);
  const DimensionOrderRouting routing;
  FaultSchedule faults;
  faults.events.push_back({FaultEvent::Kind::kRouter, 3, 0});
  faults.events.push_back({FaultEvent::Kind::kLink, 7, 100});
  faults.events.push_back({FaultEvent::Kind::kLink, 2, 1u << 20});
  const FlitSimResult got = compare(t, routing, TrafficPattern::uniform(64),
                                    0.1, short_config(2), faults);
  EXPECT_EQ(got.dead_routers, 1u);
}

}  // namespace
