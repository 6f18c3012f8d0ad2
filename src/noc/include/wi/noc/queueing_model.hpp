#pragma once
/// \file queueing_model.hpp
/// \brief Analytic NoC latency model based on queueing theory —
///        reimplementation of the flexible design-space-exploration
///        model of ref. [14] that produced Fig. 8.
///
/// Every router output channel is modelled as an M/M/1 queue: uniform
/// Poisson injection at rate lambda [flits/cycle/module] generates a
/// per-channel flit arrival rate lambda_l (computed exactly from the
/// routing function and the traffic pattern), and the channel serves
/// with rate mu_l = efficiency * bandwidth. The mean packet latency is
/// the traffic-weighted sum of per-hop delays
///   t_hop = router_delay + link_delay + W_l,  W_l = rho/(mu (1 - rho)),
/// plus the router traversal at the destination. When any channel
/// reaches rho >= 1 the network is saturated and the latency diverges —
/// the "network saturation point" the paper reads off the curves.
///
/// Defaults are calibrated once, globally (not per topology): a 2-cycle
/// router pipeline and 82% channel efficiency put the Fig. 8(a) anchors
/// at 13/7/10 cycles low-load latency and 0.41/0.19/0.75-ish saturation.

#include <cstddef>
#include <vector>

#include "wi/noc/routing.hpp"
#include "wi/noc/topology.hpp"
#include "wi/noc/traffic.hpp"

namespace wi::noc {

/// Model parameters (global; see file comment for calibration).
struct QueueingModelParams {
  double router_delay_cycles = 2.0;   ///< per traversed router
  double link_delay_cycles = 0.0;     ///< wire delay per hop
  double local_delay_cycles = 0.0;    ///< module<->router access
  double channel_efficiency = 0.82;   ///< arbitration/flow-control derate
  double packet_length_flits = 1.0;   ///< serialisation length
};

/// Evaluation output for one injection rate.
struct NetworkPerformance {
  double mean_latency_cycles = 0.0;  ///< traffic-weighted mean
  double max_channel_load = 0.0;     ///< max rho over channels
  bool saturated = false;            ///< some rho >= 1
};

/// Analytic latency/throughput model.
class QueueingModel {
 public:
  /// Precomputes per-channel load coefficients (and, for dense traffic
  /// patterns, all module-pair routes); evaluate() is then
  /// O(channels + pairs). Implicit patterns never materialise the
  /// module-pair matrix or the path list: channel loads are aggregated
  /// directly — in closed form for uniform/hotspot traffic on a regular
  /// mesh under dimension-order routing (O(modules + channels) setup),
  /// via O(modules) permutation walks for transpose/bit-complement/
  /// tornado, and via an aggregate-only pairwise walk otherwise — and
  /// evaluate() folds the same per-path sum through the aggregated
  /// coefficients (mathematically identical to the dense walk; only
  /// float summation order differs).
  QueueingModel(const Topology& topology, const Routing& routing,
                const TrafficPattern& traffic,
                QueueingModelParams params = {});

  /// Performance at an injection rate [flits/cycle/module].
  [[nodiscard]] NetworkPerformance evaluate(double injection_rate) const;

  /// Mean latency in the zero-load limit.
  [[nodiscard]] double zero_load_latency_cycles() const;

  /// Injection rate where the first channel saturates (capacity).
  [[nodiscard]] double saturation_rate() const;

  [[nodiscard]] const QueueingModelParams& params() const { return params_; }

 private:
  void build_dense(const Topology& topology, const Routing& routing,
                   const TrafficPattern& traffic);
  void build_implicit(const Topology& topology, const Routing& routing,
                      const TrafficPattern& traffic);

  QueueingModelParams params_;
  std::size_t channel_count_ = 0;
  std::size_t modules_ = 0;
  double average_hops_ = 0.0;  ///< traffic-weighted router-to-router hops
  /// Per-channel flit arrival coefficient per unit injection rate.
  std::vector<double> channel_load_coeff_;
  /// Per-channel service rate (efficiency * bandwidth).
  std::vector<double> channel_service_;
  /// Per path: probability weight and the channel list.
  struct PathEntry {
    double weight = 0.0;
    std::vector<std::size_t> channels;
  };
  std::vector<PathEntry> paths_;
  /// Implicit-pattern mode: paths_ is empty and evaluate() folds the
  /// per-path sum through the aggregated coefficients instead.
  bool aggregate_ = false;
  double total_weight_ = 0.0;  ///< sum of path weights (1 by row norm)
};

}  // namespace wi::noc
