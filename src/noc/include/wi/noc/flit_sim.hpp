#pragma once
/// \file flit_sim.hpp
/// \brief Event-driven flit-level NoC simulator.
///
/// Independent cross-check of the analytic queueing model: input-queued
/// routers, round-robin output arbitration, deterministic routing,
/// Bernoulli packet injection per module. One flit moves per output
/// channel per cycle (per-channel bandwidth b moves up to b flits);
/// router traversal adds a fixed, whole-cycle pipeline delay.
///
/// The core only turns a router on a cycle where it has work (a flit
/// becomes ready, a packet is offered, or a blocked head retries), and
/// it draws the injection process as the run advances. Results are
/// deterministic per seed and bit-identical to the cycle-stepped loop
/// it replaced (kept as the differential oracle in bench/perf). Routing
/// failures (unreachable pairs, inconsistent next hops) are recorded
/// during table construction and thrown once as wi::StatusError the
/// first time a flit actually needs the failed route.
///
/// Fault injection: the six-argument overload takes a
/// wi::fault::FaultSchedule of link/router failures. When an event
/// activates (at the start of its cycle), the dead entity's buffered
/// flits are destroyed and the next-hop table is recomputed over the
/// surviving graph (deterministic reverse BFS, minimal hops, lowest
/// link index first), so traffic reroutes around the failure.
/// Destinations cut off from a source surface as wi::Status rows in
/// FlitSimResult::route_failures — flits bound for them are dropped and
/// counted, never thrown. An empty schedule is bit-identical to the
/// five-argument overload.

#include <cstdint>
#include <vector>

#include "wi/common/fault.hpp"
#include "wi/common/status.hpp"
#include "wi/noc/routing.hpp"
#include "wi/noc/topology.hpp"
#include "wi/noc/traffic.hpp"

namespace wi::noc {

/// Simulator settings.
struct FlitSimConfig {
  std::size_t warmup_cycles = 3000;    ///< excluded from statistics
  std::size_t measure_cycles = 20000;  ///< measurement window
  std::size_t drain_cycles = 20000;    ///< post-window drain limit
  std::size_t buffer_depth = 8;        ///< input queue capacity [flits]
  /// Pipeline depth per hop: a whole number of cycles in
  /// [1, kMaxRouterDelayCycles] (see validate_router_delay).
  double router_delay_cycles = 2.0;
  std::uint64_t seed = 1;
};

/// Largest router delay the event wheel accepts (its slot count grows
/// with the delay).
inline constexpr double kMaxRouterDelayCycles = 1024.0;

/// ok when `cycles` is a whole number in [1, kMaxRouterDelayCycles];
/// kInvalidSpec otherwise. Spec validators use it so a bad delay is
/// rejected before a run instead of thrown from simulate_network.
[[nodiscard]] Status validate_router_delay(double cycles);

/// Aggregated results.
struct FlitSimResult {
  double mean_latency_cycles = 0.0;   ///< inject->eject, measured packets
  double delivered_per_cycle = 0.0;   ///< throughput per module
  std::size_t delivered = 0;          ///< measured packets delivered
  std::size_t injected = 0;           ///< measured packets injected
  bool stable = false;                ///< queues drained afterwards
  // Fault-mode accounting (all zero when the schedule is empty).
  std::size_t dropped = 0;            ///< measured packets destroyed by a
                                      ///< fault activation (buffered at a
                                      ///< dying entity, or offered at a
                                      ///< dead source)
  std::size_t unreachable = 0;        ///< measured packets dropped for
                                      ///< want of a live route
  std::size_t dead_links = 0;         ///< links dead by the end (incl.
                                      ///< collateral of router deaths)
  std::size_t dead_routers = 0;       ///< routers dead by the end
  /// Unique route failures hit by actual traffic (first few, one per
  /// (source router, destination router) pair) — the Status rows the
  /// fault_sweep workload surfaces instead of a throw.
  std::vector<Status> route_failures;
  /// Diagnostics (not part of any golden): router turns the core
  /// actually executed. A router is only turned on a cycle where it has
  /// work (a ready flit, a queued offer, or a blocked head to retry), so
  /// this is 0 for a zero-traffic run and far below routers * cycles at
  /// low load.
  std::uint64_t turns_executed = 0;
};

/// Run one simulation at a given injection rate [packets/cycle/module]
/// (single-flit packets, matching the analytic model's default).
/// Throws wi::StatusError (kInvalidSpec) for a router delay that
/// validate_router_delay rejects and for configs beyond the packed
/// flit record (2^26 routers, 2^37 total cycles, buffer depth 2^16);
/// std::invalid_argument when the traffic pattern's module count does
/// not match the topology.
[[nodiscard]] FlitSimResult simulate_network(const Topology& topology,
                                             const Routing& routing,
                                             const TrafficPattern& traffic,
                                             double injection_rate,
                                             const FlitSimConfig& config = {});

/// Fault-injecting overload: link/router failures from `faults` strike
/// at their scheduled cycles and traffic reroutes over the surviving
/// graph. With an empty schedule this is bit-identical to the overload
/// above.
[[nodiscard]] FlitSimResult simulate_network(const Topology& topology,
                                             const Routing& routing,
                                             const TrafficPattern& traffic,
                                             double injection_rate,
                                             const FlitSimConfig& config,
                                             const fault::FaultSchedule& faults);

}  // namespace wi::noc
