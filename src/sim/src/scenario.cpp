#include "wi/sim/scenario.hpp"

#include <charconv>
#include <cmath>
#include <stdexcept>

#include "wi/noc/flit_sim.hpp"
#include "wi/sim/workload.hpp"

namespace wi::sim {

namespace {

[[nodiscard]] std::string format_value(double value) {
  // Shortest round-trip representation: distinct axis values always get
  // distinct grid-point names.
  char buffer[32];
  const auto [end, ec] =
      std::to_chars(buffer, buffer + sizeof(buffer), value);
  if (ec != std::errc()) return "nan";
  return {buffer, end};
}

[[nodiscard]] Status invalid(const std::string& message) {
  return {StatusCode::kInvalidSpec, message};
}

}  // namespace

ScenarioSpec::ScenarioSpec(const ScenarioSpec& other)
    : name(other.name),
      description(other.description),
      workload(other.workload),
      geometry(other.geometry),
      link(other.link),
      phy(other.phy),
      noc(other.noc),
      payload_(other.payload_ ? other.payload_->clone() : nullptr) {}

ScenarioSpec& ScenarioSpec::operator=(const ScenarioSpec& other) {
  if (this != &other) {
    name = other.name;
    description = other.description;
    workload = other.workload;
    geometry = other.geometry;
    link = other.link;
    phy = other.phy;
    noc = other.noc;
    payload_ = other.payload_ ? other.payload_->clone() : nullptr;
  }
  return *this;
}

noc::Topology TopologySpec::build() const {
  try {
    switch (kind) {
      case Kind::kMesh2d:
        return noc::Topology::mesh_2d(kx, ky);
      case Kind::kStarMesh:
        return noc::Topology::star_mesh(kx, ky, concentration);
      case Kind::kStarMeshIrl:
        return noc::Topology::star_mesh_irl(kx, ky, concentration, irl);
      case Kind::kMesh3d:
        return noc::Topology::mesh_3d(kx, ky, kz);
      case Kind::kCiliatedMesh3d:
        return noc::Topology::ciliated_mesh_3d(kx, ky, kz, concentration);
      case Kind::kPartialVertical3d:
        return noc::Topology::partial_vertical_mesh_3d(kx, ky, kz, tsv_period,
                                                       vertical_bandwidth);
    }
  } catch (const std::invalid_argument& e) {
    throw StatusError(invalid(std::string("TopologySpec: ") + e.what()));
  }
  throw StatusError(invalid("TopologySpec: unknown topology kind"));
}

std::size_t TopologySpec::module_count() const {
  switch (kind) {
    case Kind::kMesh2d:
      return kx * ky;
    case Kind::kStarMesh:
    case Kind::kStarMeshIrl:
      return kx * ky * concentration;
    case Kind::kMesh3d:
    case Kind::kPartialVertical3d:
      return kx * ky * kz;
    case Kind::kCiliatedMesh3d:
      return kx * ky * kz * concentration;
  }
  return 0;
}

Status NocSpec::validate(const std::string& scenario_name) const {
  const auto& t = topology;
  if (t.kx < 1 || t.ky < 1 || t.kz < 1) {
    return invalid(scenario_name + ": topology dimensions must be >= 1");
  }
  if (t.concentration < 1) {
    return invalid(scenario_name + ": concentration must be >= 1");
  }
  if (t.irl < 1) return invalid(scenario_name + ": irl must be >= 1");
  if (t.tsv_period < 1) {
    return invalid(scenario_name + ": tsv_period must be >= 1");
  }
  for (const double rate : injection_rates) {
    if (rate < 0.0) {
      return invalid(scenario_name + ": injection rates must be >= 0");
    }
  }
  if (traffic == TrafficKind::kHotspot) {
    if (hotspot_fraction < 0.0 || hotspot_fraction > 1.0) {
      return invalid(scenario_name + ": hotspot_fraction must be in [0, 1]");
    }
    if (hotspot_module >= t.module_count()) {
      return invalid(scenario_name + ": hotspot_module out of range for " +
                     std::to_string(t.module_count()) + " modules");
    }
  }
  if (traffic == TrafficKind::kTornado) {
    if (t.module_count() != t.kx * t.ky * t.kz) {
      return invalid(scenario_name +
                     ": tornado traffic requires one module per router");
    }
    if (t.kx < 3 && t.ky < 3 && t.kz < 3) {
      return invalid(scenario_name +
                     ": tornado traffic needs a mesh extent >= 3 (every "
                     "half-ring shift is zero below that)");
    }
  }
  return Status::ok();
}

Status NocSpec::validate_des_delay(const std::string& scenario_name) const {
  const Status delay = noc::validate_router_delay(model.router_delay_cycles);
  if (delay.is_ok()) return delay;
  return invalid(scenario_name + ": noc model " + delay.message());
}

noc::TrafficPattern NocSpec::build_traffic(std::size_t modules) const {
  const bool implicit = traffic_mode == TrafficMode::kImplicit;
  switch (traffic) {
    case TrafficKind::kUniform:
      return implicit ? noc::TrafficPattern::implicit_uniform(modules)
                      : noc::TrafficPattern::uniform(modules);
    case TrafficKind::kTranspose:
      return implicit ? noc::TrafficPattern::implicit_transpose(modules)
                      : noc::TrafficPattern::transpose(modules);
    case TrafficKind::kBitComplement:
      return implicit ? noc::TrafficPattern::implicit_bit_complement(modules)
                      : noc::TrafficPattern::bit_complement(modules);
    case TrafficKind::kHotspot:
      return implicit ? noc::TrafficPattern::implicit_hotspot(
                            modules, hotspot_module, hotspot_fraction)
                      : noc::TrafficPattern::hotspot(modules, hotspot_module,
                                                     hotspot_fraction);
    case TrafficKind::kTornado:
      return implicit
                 ? noc::TrafficPattern::implicit_tornado(
                       modules, topology.kx, topology.ky, topology.kz)
                 : noc::TrafficPattern::tornado(modules, topology.kx,
                                                topology.ky, topology.kz);
  }
  throw StatusError(
      Status(StatusCode::kUnsupported, "unknown traffic kind"));
}

std::unique_ptr<noc::Routing> NocSpec::build_routing() const {
  if (routing == RoutingKind::kShortestPath) {
    return std::make_unique<noc::ShortestPathRouting>();
  }
  return std::make_unique<noc::DimensionOrderRouting>();
}

Status ScenarioSpec::validate() const {
  if (name.empty()) return invalid("scenario name must not be empty");
  if (geometry.boards < 1) return invalid(name + ": boards must be >= 1");
  if (geometry.board_size_mm <= 0.0) {
    return invalid(name + ": board_size_mm must be > 0");
  }
  if (geometry.separation_mm <= 0.0) {
    return invalid(name + ": separation_mm must be > 0");
  }
  if (geometry.nodes_per_edge < 1) {
    return invalid(name + ": nodes_per_edge must be >= 1");
  }
  if (link.budget.bandwidth_hz <= 0.0) {
    return invalid(name + ": link bandwidth must be > 0");
  }
  if (phy.bandwidth_hz <= 0.0) {
    return invalid(name + ": phy bandwidth must be > 0");
  }
  if (phy.polarizations < 1) {
    return invalid(name + ": polarizations must be >= 1");
  }
  // Workload-specific checks live with the workload's runner; an
  // unregistered workload name (or a payload of the wrong type) is
  // itself an invalid spec.
  try {
    return WorkloadRegistry::global().get(workload).validate(*this);
  } catch (const StatusError& e) {
    return e.status();
  }
}

std::vector<ScenarioSpec> expand_grid(const ScenarioSpec& base,
                                      const std::vector<SweepAxis>& axes) {
  for (const auto& axis : axes) {
    if (axis.values.empty()) {
      throw StatusError(invalid("sweep axis '" + axis.name + "' is empty"));
    }
    if (!axis.apply) {
      throw StatusError(
          invalid("sweep axis '" + axis.name + "' has no apply function"));
    }
  }
  std::vector<ScenarioSpec> out;
  std::size_t total = 1;
  for (const auto& axis : axes) total *= axis.values.size();
  out.reserve(total);
  // Mixed-radix counter over the axes; first axis varies slowest.
  std::vector<std::size_t> index(axes.size(), 0);
  for (std::size_t point = 0; point < total; ++point) {
    ScenarioSpec spec = base;
    std::string suffix;
    for (std::size_t a = 0; a < axes.size(); ++a) {
      const double value = axes[a].values[index[a]];
      axes[a].apply(spec, value);
      suffix += (a == 0 ? "/" : ";") + axes[a].name + "=" +
                format_value(value);
    }
    spec.name += suffix;
    out.push_back(std::move(spec));
    for (std::size_t a = axes.size(); a-- > 0;) {
      if (++index[a] < axes[a].values.size()) break;
      index[a] = 0;
    }
  }
  return out;
}

}  // namespace wi::sim
