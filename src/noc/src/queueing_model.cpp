#include "wi/noc/queueing_model.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "wi/noc/mesh_grid.hpp"

namespace wi::noc {
namespace {

/// Closed-form uniform-traffic channel loads on a regular mesh under
/// dimension-order routing, scaled by `scale` and accumulated into
/// coeff / average-hops. Under X-then-Y-then-Z routing the number of
/// ordered router pairs crossing each link is a product of coordinate
/// ranges — e.g. the +x link at (x,y,z) carries every pair with source
/// x' <= x in the same (y,z) row and destination x' > x anywhere — so
/// the whole load map costs O(channels) instead of O(modules^2) route
/// walks. Each router pair covers c^2 module pairs (c = concentration),
/// each with probability 1/(modules-1). Returns false (accumulating
/// nothing) when the topology/attachment is not eligible.
bool accumulate_uniform_closed_form(const Topology& topology,
                                    const Routing& routing, double scale,
                                    std::vector<double>& coeff,
                                    double& average_hops) {
  if (dynamic_cast<const DimensionOrderRouting*>(&routing) == nullptr) {
    return false;
  }
  if (!MeshGrid::analyze(topology).has_value()) return false;
  const std::size_t routers = topology.router_count();
  const std::size_t modules = topology.module_count();
  if (modules < 2 || routers == 0 || modules % routers != 0) return false;
  const std::size_t c = modules / routers;
  for (std::size_t m = 0; m < modules; ++m) {
    if (topology.module_router(m) != m / c) return false;
  }
  const std::size_t kx = topology.kx();
  const std::size_t ky = topology.ky();
  const std::size_t kz = topology.kz();
  const double c2 = static_cast<double>(c) * static_cast<double>(c);
  const double fan = static_cast<double>(modules - 1);
  double pair_hops = 0.0;  // sum of hops over all ordered router pairs
  for (std::size_t l = 0; l < topology.link_count(); ++l) {
    const Link& link = topology.link(l);
    const Coord& a = topology.coord(link.src);
    const Coord& b = topology.coord(link.dst);
    const std::size_t x = static_cast<std::size_t>(a.x);
    const std::size_t y = static_cast<std::size_t>(a.y);
    const std::size_t z = static_cast<std::size_t>(a.z);
    double pairs;  // ordered router pairs whose DOR route crosses l
    if (b.x == a.x + 1) {
      pairs = static_cast<double>((x + 1) * (kx - 1 - x) * ky * kz);
    } else if (b.x + 1 == a.x) {
      pairs = static_cast<double>((kx - x) * x * ky * kz);
    } else if (b.y == a.y + 1) {
      pairs = static_cast<double>(kx * (y + 1) * (ky - 1 - y) * kz);
    } else if (b.y + 1 == a.y) {
      pairs = static_cast<double>(kx * (ky - y) * y * kz);
    } else if (b.z == a.z + 1) {
      pairs = static_cast<double>(kx * ky * (z + 1) * (kz - 1 - z));
    } else {
      pairs = static_cast<double>(kx * ky * (kz - z) * z);
    }
    coeff[l] += scale * c2 * pairs / fan;
    pair_hops += pairs;
  }
  average_hops += scale * c2 * pair_hops /
                  (static_cast<double>(modules) * fan);
  return true;
}

}  // namespace

QueueingModel::QueueingModel(const Topology& topology, const Routing& routing,
                             const TrafficPattern& traffic,
                             QueueingModelParams params)
    : params_(params),
      channel_count_(topology.link_count()),
      modules_(topology.module_count()) {
  if (traffic.modules() != modules_) {
    throw std::invalid_argument("QueueingModel: traffic/module mismatch");
  }
  channel_load_coeff_.assign(channel_count_, 0.0);
  channel_service_.resize(channel_count_);
  for (std::size_t l = 0; l < channel_count_; ++l) {
    channel_service_[l] =
        params_.channel_efficiency * topology.link(l).bandwidth;
  }
  if (traffic.implicit_form()) {
    build_implicit(topology, routing, traffic);
  } else {
    build_dense(topology, routing, traffic);
  }
}

void QueueingModel::build_dense(const Topology& topology,
                                const Routing& routing,
                                const TrafficPattern& traffic) {
  // Exact per-channel load coefficients: each module injects 1 unit of
  // flits per cycle at lambda = 1, split over destinations by the
  // traffic matrix and mapped onto channels by the routing function.
  const std::size_t modules = modules_;
  const double per_module = 1.0;
  for (std::size_t s = 0; s < modules; ++s) {
    for (std::size_t d = 0; d < modules; ++d) {
      const double p = traffic.probability(s, d);
      if (p <= 0.0 || s == d) continue;
      const Route route = routing.route(topology, topology.module_router(s),
                                        topology.module_router(d));
      PathEntry entry;
      entry.weight = p / static_cast<double>(modules);
      entry.channels = route;
      for (const std::size_t l : route) {
        channel_load_coeff_[l] += per_module * p;
      }
      average_hops_ += entry.weight * static_cast<double>(route.size());
      paths_.push_back(std::move(entry));
    }
  }
}

void QueueingModel::build_implicit(const Topology& topology,
                                   const Routing& routing,
                                   const TrafficPattern& traffic) {
  aggregate_ = true;
  total_weight_ = 1.0;  // every source row sums to 1 analytically
  const std::size_t modules = modules_;
  const double mod = static_cast<double>(modules);

  // Accumulate one module-pair route with probability p: same
  // contribution the dense walk makes, minus the stored path.
  const auto walk = [&](std::size_t s, std::size_t d, double p) {
    const Route route = routing.route(topology, topology.module_router(s),
                                      topology.module_router(d));
    for (const std::size_t l : route) channel_load_coeff_[l] += p;
    average_hops_ += (p / mod) * static_cast<double>(route.size());
  };

  switch (traffic.kind()) {
    case TrafficPatternKind::kTranspose:
    case TrafficPatternKind::kBitComplement:
    case TrafficPatternKind::kTornado:
      // Permutations: one unit-probability route per source.
      for (std::size_t s = 0; s < modules; ++s) {
        walk(s, traffic.permutation_target(s), 1.0);
      }
      return;
    case TrafficPatternKind::kUniform:
      if (accumulate_uniform_closed_form(topology, routing, 1.0,
                                         channel_load_coeff_,
                                         average_hops_)) {
        return;
      }
      break;
    case TrafficPatternKind::kHotspot: {
      // hotspot = (1-f) * uniform + f * hotspot-directed: the directed
      // remainder sends every non-hot source to the hot module and
      // spreads the hot module's own f uniformly, so it costs O(modules)
      // route walks on top of the closed-form uniform base.
      const double f = traffic.hotspot_fraction();
      const std::size_t hot = traffic.hotspot_module();
      if (accumulate_uniform_closed_form(topology, routing, 1.0 - f,
                                         channel_load_coeff_,
                                         average_hops_)) {
        if (f > 0.0) {
          const double fan = static_cast<double>(modules - 1);
          for (std::size_t s = 0; s < modules; ++s) {
            if (s == hot) continue;
            walk(s, hot, f);
            walk(hot, s, f / fan);
          }
        }
        return;
      }
      break;
    }
    case TrafficPatternKind::kDense:
      break;
  }

  // Fallback (irregular topology, non-DOR routing, or non-uniform
  // module attachment): the dense pairwise walk, aggregate-only — still
  // O(channels) memory, no path list.
  for (std::size_t s = 0; s < modules; ++s) {
    for (std::size_t d = 0; d < modules; ++d) {
      const double p = traffic.probability(s, d);
      if (p <= 0.0 || s == d) continue;
      walk(s, d, p);
    }
  }
}

NetworkPerformance QueueingModel::evaluate(double injection_rate) const {
  NetworkPerformance perf;
  if (injection_rate < 0.0) {
    throw std::invalid_argument("QueueingModel: negative injection rate");
  }
  // Per-channel waiting times.
  std::vector<double> wait(channel_count_, 0.0);
  for (std::size_t l = 0; l < channel_count_; ++l) {
    const double lambda = injection_rate * channel_load_coeff_[l] *
                          params_.packet_length_flits;
    const double mu = channel_service_[l];
    const double rho = lambda / mu;
    perf.max_channel_load = std::max(perf.max_channel_load, rho);
    if (rho >= 1.0) {
      perf.saturated = true;
    } else {
      // M/M/1 waiting time in service-time units of this channel.
      wait[l] = rho / (mu * (1.0 - rho));
    }
  }
  if (perf.saturated) {
    perf.mean_latency_cycles = std::numeric_limits<double>::infinity();
    return perf;
  }
  // Traffic-weighted mean path latency.
  const double hop_fixed = params_.router_delay_cycles +
                           params_.link_delay_cycles;
  const double serialization = params_.packet_length_flits - 1.0;
  if (aggregate_) {
    // The same sum the path loop below computes, regrouped by channel:
    // sum over paths of weight * (base + sum over hops of
    // (hop_fixed + wait_l)) = total_weight * base
    // + average_hops * hop_fixed + sum_l wait_l * (coeff_l / modules),
    // because each channel's summed path weight is coeff_l / modules.
    double latency = total_weight_ * (2.0 * params_.local_delay_cycles +
                                      params_.router_delay_cycles +
                                      serialization) +
                     average_hops_ * hop_fixed;
    const double mod = static_cast<double>(modules_);
    for (std::size_t l = 0; l < channel_count_; ++l) {
      latency += wait[l] * (channel_load_coeff_[l] / mod);
    }
    perf.mean_latency_cycles = latency;
    return perf;
  }
  double latency = 0.0;
  for (const PathEntry& path : paths_) {
    double t = 2.0 * params_.local_delay_cycles +  // inject + eject
               params_.router_delay_cycles +       // destination router
               serialization;
    for (const std::size_t l : path.channels) {
      t += hop_fixed + wait[l];
    }
    latency += path.weight * t;
  }
  perf.mean_latency_cycles = latency;
  return perf;
}

double QueueingModel::zero_load_latency_cycles() const {
  return evaluate(0.0).mean_latency_cycles;
}

double QueueingModel::saturation_rate() const {
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t l = 0; l < channel_count_; ++l) {
    if (channel_load_coeff_[l] <= 0.0) continue;
    best = std::min(best, channel_service_[l] /
                              (channel_load_coeff_[l] *
                               params_.packet_length_flits));
  }
  return best;
}

}  // namespace wi::noc
