#include "wi/sim/scenario_json.hpp"

#include <utility>

#include "wi/sim/spec_codec.hpp"
#include "wi/sim/workload.hpp"

namespace wi::sim {

const char* beamforming_name(core::Beamforming value) {
  return enum_name(kBeamformings, value);
}
const char* phy_receiver_name(core::PhyReceiver value) {
  return enum_name(kPhyReceivers, value);
}
const char* topology_kind_name(TopologySpec::Kind value) {
  return enum_name(kTopologyKinds, value);
}
const char* traffic_kind_name(TrafficKind value) {
  return enum_name(kTrafficKinds, value);
}
const char* routing_kind_name(RoutingKind value) {
  return enum_name(kRoutingKinds, value);
}

Json scenario_to_json(const ScenarioSpec& spec) {
  Json json = Json::object();
  json.set("name", Json(spec.name));
  json.set("description", Json(spec.description));
  json.set("workload", Json(spec.workload));

  {
    Json g = Json::object();
    g.set("boards", Json(static_cast<double>(spec.geometry.boards)));
    g.set("board_size_mm", Json(spec.geometry.board_size_mm));
    g.set("separation_mm", Json(spec.geometry.separation_mm));
    g.set("nodes_per_edge",
          Json(static_cast<double>(spec.geometry.nodes_per_edge)));
    json.set("geometry", std::move(g));
  }
  {
    Json budget = Json::object();
    const auto& b = spec.link.budget;
    budget.set("carrier_freq_hz", Json(b.carrier_freq_hz));
    budget.set("bandwidth_hz", Json(b.bandwidth_hz));
    budget.set("rx_noise_figure_db", Json(b.rx_noise_figure_db));
    budget.set("path_loss_exponent", Json(b.path_loss_exponent));
    budget.set("array_gain_db", Json(b.array_gain_db));
    budget.set("butler_inaccuracy_db", Json(b.butler_inaccuracy_db));
    budget.set("polarization_mismatch_db", Json(b.polarization_mismatch_db));
    budget.set("implementation_loss_db", Json(b.implementation_loss_db));
    budget.set("rx_temperature_k", Json(b.rx_temperature_k));
    Json link = Json::object();
    link.set("budget", std::move(budget));
    link.set("beamforming", Json(beamforming_name(spec.link.beamforming)));
    link.set("ptx_dbm", Json(spec.link.ptx_dbm));
    link.set("target_snr_db", Json(spec.link.target_snr_db));
    json.set("link", std::move(link));
  }
  {
    Json phy = Json::object();
    phy.set("receiver", Json(phy_receiver_name(spec.phy.receiver)));
    phy.set("bandwidth_hz", Json(spec.phy.bandwidth_hz));
    phy.set("polarizations",
            Json(static_cast<double>(spec.phy.polarizations)));
    json.set("phy", std::move(phy));
  }
  {
    const auto& t = spec.noc.topology;
    Json topology = Json::object();
    topology.set("kind", Json(topology_kind_name(t.kind)));
    topology.set("kx", Json(static_cast<double>(t.kx)));
    topology.set("ky", Json(static_cast<double>(t.ky)));
    topology.set("kz", Json(static_cast<double>(t.kz)));
    topology.set("concentration", Json(static_cast<double>(t.concentration)));
    topology.set("irl", Json(static_cast<double>(t.irl)));
    topology.set("tsv_period", Json(static_cast<double>(t.tsv_period)));
    topology.set("vertical_bandwidth", Json(t.vertical_bandwidth));
    Json noc = Json::object();
    noc.set("topology", std::move(topology));
    noc.set("traffic", Json(traffic_kind_name(spec.noc.traffic)));
    noc.set("hotspot_module",
            Json(static_cast<double>(spec.noc.hotspot_module)));
    noc.set("hotspot_fraction", Json(spec.noc.hotspot_fraction));
    noc.set("routing", Json(routing_kind_name(spec.noc.routing)));
    noc.set("model", model_to_json(spec.noc.model));
    noc.set("injection_rates", number_list_json(spec.noc.injection_rates));
    noc.set("des_check_rate", Json(spec.noc.des_check_rate));
    noc.set("des_seed", Json(static_cast<double>(spec.noc.des_seed)));
    json.set("noc", std::move(noc));
  }
  // Per-workload payload, dispatched through the registry. Unregistered
  // workload names still serialize (without a payload section) so
  // diagnostics can show the spec; decoding rejects them.
  if (const WorkloadRunner* runner =
          WorkloadRegistry::global().find(spec.workload)) {
    Json payload = runner->payload_to_json(spec);
    if (!payload.is_null()) {
      json.set(runner->payload_key(), std::move(payload));
    }
  }
  return json;
}

ScenarioSpec scenario_from_json(const Json& json) {
  ScenarioSpec spec;
  ObjectReader reader(json, "scenario");
  reader.string("name", spec.name);
  reader.string("description", spec.description);
  reader.string("workload", spec.workload);

  const WorkloadRegistry& registry = WorkloadRegistry::global();
  const WorkloadRunner* runner = registry.find(spec.workload);
  if (runner == nullptr) {
    codec_fail(
        unknown_name_message("workload", spec.workload, registry.names()));
  }

  reader.field("geometry", [&](const Json& v) {
    ObjectReader r(v, "geometry");
    r.size("boards", spec.geometry.boards);
    r.number("board_size_mm", spec.geometry.board_size_mm);
    r.number("separation_mm", spec.geometry.separation_mm);
    r.size("nodes_per_edge", spec.geometry.nodes_per_edge);
    r.finish();
  });
  reader.field("link", [&](const Json& v) {
    ObjectReader r(v, "link");
    r.field("budget", [&](const Json& b) {
      ObjectReader br(b, "link.budget");
      auto& budget = spec.link.budget;
      br.number("carrier_freq_hz", budget.carrier_freq_hz);
      br.number("bandwidth_hz", budget.bandwidth_hz);
      br.number("rx_noise_figure_db", budget.rx_noise_figure_db);
      br.number("path_loss_exponent", budget.path_loss_exponent);
      br.number("array_gain_db", budget.array_gain_db);
      br.number("butler_inaccuracy_db", budget.butler_inaccuracy_db);
      br.number("polarization_mismatch_db", budget.polarization_mismatch_db);
      br.number("implementation_loss_db", budget.implementation_loss_db);
      br.number("rx_temperature_k", budget.rx_temperature_k);
      br.finish();
    });
    r.enumeration("beamforming", kBeamformings, spec.link.beamforming);
    r.number("ptx_dbm", spec.link.ptx_dbm);
    r.number("target_snr_db", spec.link.target_snr_db);
    r.finish();
  });
  reader.field("phy", [&](const Json& v) {
    ObjectReader r(v, "phy");
    r.enumeration("receiver", kPhyReceivers, spec.phy.receiver);
    r.number("bandwidth_hz", spec.phy.bandwidth_hz);
    r.size("polarizations", spec.phy.polarizations);
    r.finish();
  });
  reader.field("noc", [&](const Json& v) {
    ObjectReader r(v, "noc");
    r.field("topology", [&](const Json& t) {
      ObjectReader tr(t, "noc.topology");
      auto& topology = spec.noc.topology;
      tr.enumeration("kind", kTopologyKinds, topology.kind);
      tr.size("kx", topology.kx);
      tr.size("ky", topology.ky);
      tr.size("kz", topology.kz);
      tr.size("concentration", topology.concentration);
      tr.size("irl", topology.irl);
      tr.size("tsv_period", topology.tsv_period);
      tr.number("vertical_bandwidth", topology.vertical_bandwidth);
      tr.finish();
    });
    r.enumeration("traffic", kTrafficKinds, spec.noc.traffic);
    r.size("hotspot_module", spec.noc.hotspot_module);
    r.number("hotspot_fraction", spec.noc.hotspot_fraction);
    r.enumeration("routing", kRoutingKinds, spec.noc.routing);
    r.field("model", [&](const Json& m) {
      model_from_json(m, "noc.model", spec.noc.model);
    });
    r.number_list("injection_rates", spec.noc.injection_rates);
    r.number("des_check_rate", spec.noc.des_check_rate);
    r.u64("des_seed", spec.noc.des_seed);
    r.finish();
  });
  // The selected workload's payload section.
  reader.field(runner->payload_key(), [&](const Json& v) {
    runner->payload_from_json(v, spec);
  });
  // A payload key of a *different* workload is a likely copy/paste or
  // workload-selection mistake; say so instead of a bare unknown-key.
  for (const auto& [key, value] : json.as_object()) {
    if (key == runner->payload_key()) continue;
    if (const WorkloadRunner* owner = registry.find_by_payload_key(key)) {
      codec_fail("payload key '" + key + "' belongs to workload '" +
                 owner->name() + "', not '" + spec.workload + "'");
    }
  }
  reader.finish();
  return spec;
}

std::string scenario_to_string(const ScenarioSpec& spec) {
  return scenario_to_json(spec).dump();
}

ScenarioSpec scenario_from_string(const std::string& text) {
  return scenario_from_json(Json::parse(text));
}

std::vector<ScenarioSpec> scenarios_from_string(const std::string& text) {
  const Json json = Json::parse(text);
  if (!json.is_array()) return {scenario_from_json(json)};
  if (json.as_array().empty()) codec_fail("spec array is empty");
  std::vector<ScenarioSpec> specs;
  for (const Json& element : json.as_array()) {
    specs.push_back(scenario_from_json(element));
  }
  return specs;
}

}  // namespace wi::sim
