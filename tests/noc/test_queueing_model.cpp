#include "wi/noc/queueing_model.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace wi::noc {
namespace {

QueueingModel make_model(const Topology& t) {
  static const DimensionOrderRouting routing;
  return QueueingModel(t, routing, TrafficPattern::uniform(t.module_count()));
}

TEST(QueueingModel, Fig8aZeroLoadAnchors) {
  // Paper: 13 / 7 / 10 cycles at low traffic for 2D / star / 3D.
  EXPECT_NEAR(make_model(Topology::mesh_2d(8, 8)).zero_load_latency_cycles(),
              13.0, 0.75);
  EXPECT_NEAR(
      make_model(Topology::star_mesh(4, 4, 4)).zero_load_latency_cycles(),
      7.0, 0.75);
  EXPECT_NEAR(
      make_model(Topology::mesh_3d(4, 4, 4)).zero_load_latency_cycles(),
      10.0, 0.75);
}

TEST(QueueingModel, Fig8aSaturationOrdering) {
  // Paper: 0.41 / 0.19 / 0.75 — 3D mesh far above 2D, star-mesh lowest.
  const double sat_2d = make_model(Topology::mesh_2d(8, 8)).saturation_rate();
  const double sat_star =
      make_model(Topology::star_mesh(4, 4, 4)).saturation_rate();
  const double sat_3d =
      make_model(Topology::mesh_3d(4, 4, 4)).saturation_rate();
  EXPECT_NEAR(sat_2d, 0.41, 0.03);
  EXPECT_NEAR(sat_star, 0.19, 0.03);
  EXPECT_GT(sat_3d, 0.65);
  EXPECT_GT(sat_3d, sat_2d);
  EXPECT_GT(sat_2d, sat_star);
}

TEST(QueueingModel, LatencyIncreasesWithLoad) {
  const QueueingModel model = make_model(Topology::mesh_2d(8, 8));
  double prev = 0.0;
  for (const double rate : {0.01, 0.1, 0.2, 0.3, 0.38}) {
    const auto perf = model.evaluate(rate);
    ASSERT_FALSE(perf.saturated) << "rate " << rate;
    EXPECT_GT(perf.mean_latency_cycles, prev);
    prev = perf.mean_latency_cycles;
  }
}

TEST(QueueingModel, SaturatedAboveCapacity) {
  const QueueingModel model = make_model(Topology::mesh_2d(8, 8));
  const double sat = model.saturation_rate();
  const auto perf = model.evaluate(sat * 1.05);
  EXPECT_TRUE(perf.saturated);
  EXPECT_TRUE(std::isinf(perf.mean_latency_cycles));
}

TEST(QueueingModel, MaxChannelLoadScalesLinearly) {
  const QueueingModel model = make_model(Topology::mesh_3d(4, 4, 4));
  const double load1 = model.evaluate(0.1).max_channel_load;
  const double load2 = model.evaluate(0.2).max_channel_load;
  EXPECT_NEAR(load2, 2.0 * load1, 1e-9);
}

TEST(QueueingModel, RouterDelayScalesZeroLoad) {
  const Topology t = Topology::mesh_2d(4, 4);
  const DimensionOrderRouting routing;
  const TrafficPattern traffic = TrafficPattern::uniform(16);
  QueueingModelParams fast;
  fast.router_delay_cycles = 1.0;
  QueueingModelParams slow;
  slow.router_delay_cycles = 3.0;
  const QueueingModel model_fast(t, routing, traffic, fast);
  const QueueingModel model_slow(t, routing, traffic, slow);
  EXPECT_NEAR(model_slow.zero_load_latency_cycles() /
                  model_fast.zero_load_latency_cycles(),
              3.0, 1e-9);
}

TEST(QueueingModel, PacketLengthAddsSerialization) {
  const Topology t = Topology::mesh_2d(4, 4);
  const DimensionOrderRouting routing;
  const TrafficPattern traffic = TrafficPattern::uniform(16);
  QueueingModelParams single;
  QueueingModelParams four;
  four.packet_length_flits = 4.0;
  const QueueingModel m1(t, routing, traffic, single);
  const QueueingModel m4(t, routing, traffic, four);
  EXPECT_NEAR(m4.zero_load_latency_cycles() - m1.zero_load_latency_cycles(),
              3.0, 1e-9);
  // Longer packets consume channel capacity: saturation drops 4x.
  EXPECT_NEAR(m1.saturation_rate() / m4.saturation_rate(), 4.0, 1e-9);
}

TEST(QueueingModel, HigherBandwidthChannelsRaiseCapacity) {
  // Same topology, vertical links at 2x bandwidth: capacity improves
  // when verticals are the bottleneck.
  const Topology base = Topology::mesh_3d(2, 2, 4);
  const Topology boosted = Topology::partial_vertical_mesh_3d(2, 2, 4, 1,
                                                              2.0);
  const DimensionOrderRouting routing;
  const TrafficPattern traffic = TrafficPattern::uniform(16);
  const QueueingModel m_base(base, routing, traffic);
  const QueueingModel m_boost(boosted, routing, traffic);
  EXPECT_GT(m_boost.saturation_rate(), m_base.saturation_rate());
}

TEST(QueueingModel, RejectsBadInput) {
  const Topology t = Topology::mesh_2d(4, 4);
  const DimensionOrderRouting routing;
  EXPECT_THROW(QueueingModel(t, routing, TrafficPattern::uniform(8)),
               std::invalid_argument);
  const QueueingModel model = make_model(t);
  EXPECT_THROW((void)model.evaluate(-0.1), std::invalid_argument);
}

/// Dense and implicit builds of the same pattern must agree: the
/// aggregate evaluation regroups the identical per-path sum by channel
/// (and uniform/hotspot loads come from the closed-form pair counts),
/// so only float summation order differs — compare with a relative
/// tolerance, not exact equality.
void expect_models_agree(const Topology& t, const TrafficPattern& dense,
                         const TrafficPattern& implicit) {
  const DimensionOrderRouting routing;
  const QueueingModel a(t, routing, dense);
  const QueueingModel b(t, routing, implicit);
  EXPECT_NEAR(b.zero_load_latency_cycles() / a.zero_load_latency_cycles(),
              1.0, 1e-9);
  EXPECT_NEAR(b.saturation_rate() / a.saturation_rate(), 1.0, 1e-9);
  const double rate = 0.8 * a.saturation_rate();
  const auto pa = a.evaluate(rate);
  const auto pb = b.evaluate(rate);
  EXPECT_NEAR(pb.mean_latency_cycles / pa.mean_latency_cycles, 1.0, 1e-9);
  EXPECT_NEAR(pb.max_channel_load / pa.max_channel_load, 1.0, 1e-9);
}

TEST(QueueingModel, ImplicitUniformMatchesDenseClosedForm) {
  // Regular meshes take the closed-form pair-count path.
  expect_models_agree(Topology::mesh_2d(8, 8), TrafficPattern::uniform(64),
                      TrafficPattern::implicit_uniform(64));
  expect_models_agree(Topology::mesh_3d(4, 4, 4),
                      TrafficPattern::uniform(64),
                      TrafficPattern::implicit_uniform(64));
  // Concentrated mesh: 4 modules per router, still closed-form
  // eligible (contiguous module attachment).
  expect_models_agree(Topology::star_mesh(4, 4, 4),
                      TrafficPattern::uniform(64),
                      TrafficPattern::implicit_uniform(64));
}

TEST(QueueingModel, ImplicitHotspotMatchesDense) {
  expect_models_agree(Topology::mesh_2d(8, 8),
                      TrafficPattern::hotspot(64, 27, 0.3),
                      TrafficPattern::implicit_hotspot(64, 27, 0.3));
  expect_models_agree(Topology::star_mesh(4, 4, 4),
                      TrafficPattern::hotspot(64, 11, 0.2),
                      TrafficPattern::implicit_hotspot(64, 11, 0.2));
}

TEST(QueueingModel, ImplicitPermutationsMatchDense) {
  expect_models_agree(Topology::mesh_2d(8, 8),
                      TrafficPattern::transpose(64),
                      TrafficPattern::implicit_transpose(64));
  expect_models_agree(Topology::mesh_2d(8, 8),
                      TrafficPattern::bit_complement(64),
                      TrafficPattern::implicit_bit_complement(64));
  expect_models_agree(Topology::mesh_2d(8, 8),
                      TrafficPattern::tornado(64, 8, 8, 1),
                      TrafficPattern::implicit_tornado(64, 8, 8, 1));
}

TEST(QueueingModel, ImplicitFallbackWithoutDimensionOrderRouting) {
  // The closed-form pair counts only apply under dimension-order
  // routing; shortest-path routing forces the aggregate-only pairwise
  // fallback — which still must match the dense walk.
  const Topology t = Topology::mesh_2d(4, 4);
  const ShortestPathRouting routing;
  const QueueingModel a(t, routing, TrafficPattern::uniform(16));
  const QueueingModel b(t, routing, TrafficPattern::implicit_uniform(16));
  EXPECT_NEAR(b.zero_load_latency_cycles() / a.zero_load_latency_cycles(),
              1.0, 1e-9);
  EXPECT_NEAR(b.saturation_rate() / a.saturation_rate(), 1.0, 1e-9);
  const auto pa = a.evaluate(0.1);
  const auto pb = b.evaluate(0.1);
  EXPECT_NEAR(pb.mean_latency_cycles / pa.mean_latency_cycles, 1.0, 1e-9);
}

TEST(QueueingModel, Fig8bGapWidensWithScale) {
  // The paper's 512-module observation.
  const double gap_64 =
      make_model(Topology::mesh_2d(8, 8)).zero_load_latency_cycles() -
      make_model(Topology::mesh_3d(4, 4, 4)).zero_load_latency_cycles();
  const double gap_512 =
      make_model(Topology::mesh_2d(32, 16)).zero_load_latency_cycles() -
      make_model(Topology::mesh_3d(8, 8, 8)).zero_load_latency_cycles();
  EXPECT_GT(gap_512, 3.0 * gap_64);
}

}  // namespace
}  // namespace wi::noc
