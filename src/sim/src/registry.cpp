#include "wi/sim/registry.hpp"

#include "wi/common/math.hpp"
#include "wi/sim/workload.hpp"
#include "wi/sim/workloads/adc_energy.hpp"
#include "wi/sim/workloads/fault_sweep.hpp"
#include "wi/sim/workloads/flit_sim.hpp"
#include "wi/sim/workloads/impulse_response.hpp"
#include "wi/sim/workloads/info_rates.hpp"

namespace wi::sim {

void ScenarioRegistry::add(ScenarioSpec spec) {
  const Status status = spec.validate();
  if (!status.is_ok()) throw StatusError(status);
  if (contains(spec.name)) {
    throw StatusError(Status(StatusCode::kInvalidSpec,
                             "duplicate scenario name '" + spec.name + "'"));
  }
  specs_.push_back(std::move(spec));
}

bool ScenarioRegistry::contains(const std::string& name) const {
  for (const auto& spec : specs_) {
    if (spec.name == name) return true;
  }
  return false;
}

const ScenarioSpec& ScenarioRegistry::get(const std::string& name) const {
  for (const auto& spec : specs_) {
    if (spec.name == name) return spec;
  }
  throw StatusError(Status(StatusCode::kInvalidSpec,
                           unknown_name_message("scenario", name, names())));
}

std::vector<std::string> ScenarioRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(specs_.size());
  for (const auto& spec : specs_) out.push_back(spec.name);
  return out;
}

namespace {

[[nodiscard]] ScenarioSpec noc_scenario(std::string name,
                                        std::string description,
                                        TopologySpec topology) {
  ScenarioSpec spec;
  spec.name = std::move(name);
  spec.description = std::move(description);
  spec.workload = "noc_latency";
  spec.noc.topology = topology;
  return spec;
}

[[nodiscard]] ScenarioRegistry build_paper_registry() {
  ScenarioRegistry registry;

  {
    ScenarioSpec spec;
    spec.name = "table1_link_budget";
    spec.description = "Table I link budget parameters + derived anchors";
    spec.workload = "link_budget_table";
    registry.add(spec);
  }
  {
    ScenarioSpec spec;
    spec.name = "fig01_pathloss";
    spec.description =
        "Fig. 1: pathloss vs distance, free space and copper boards";
    spec.workload = "pathloss_campaign";
    registry.add(spec);
  }
  {
    ScenarioSpec spec;
    spec.name = "fig04_tx_power";
    spec.description = "Fig. 4: required PTX vs target SNR, extreme links";
    spec.workload = "tx_power_sweep";
    registry.add(spec);
  }
  {
    ScenarioSpec spec;
    spec.name = "quickstart_link_rate";
    spec.description =
        "Size the extreme board-to-board links and their PHY data rate";
    spec.workload = "link_rate";
    // Default receiver: the paper's 1-bit sequence detector (the
    // Monte-Carlo curve the PhyCurveCache exists for).
    registry.add(spec);
  }
  {
    ScenarioSpec spec;
    spec.name = "board_links_plan";
    spec.description =
        "Plan every adjacent-board link of a two-board 2x2-node system";
    spec.workload = "link_plan";
    spec.geometry.nodes_per_edge = 2;
    spec.phy.receiver = core::PhyReceiver::kOneBitSymbolwise;
    registry.add(spec);
  }

  // Fig. 8(a): 64 modules, three topologies.
  {
    TopologySpec mesh2d;
    mesh2d.kind = TopologySpec::Kind::kMesh2d;
    mesh2d.kx = 8;
    mesh2d.ky = 8;
    ScenarioSpec spec = noc_scenario(
        "fig08a_mesh2d_8x8", "Fig. 8(a): 8x8 2D mesh, uniform traffic",
        mesh2d);
    spec.noc.des_check_rate = 0.0;
    registry.add(spec);
  }
  {
    TopologySpec star;
    star.kind = TopologySpec::Kind::kStarMesh;
    star.kx = 4;
    star.ky = 4;
    star.concentration = 4;
    registry.add(noc_scenario("fig08a_star_mesh_4x4c4",
                              "Fig. 8(a): 4x4 star-mesh, concentration 4",
                              star));
  }
  {
    TopologySpec mesh3d;
    mesh3d.kind = TopologySpec::Kind::kMesh3d;
    mesh3d.kx = 4;
    mesh3d.ky = 4;
    mesh3d.kz = 4;
    ScenarioSpec spec = noc_scenario(
        "fig08a_mesh3d_4x4x4", "Fig. 8(a): 4x4x4 3D mesh, uniform traffic",
        mesh3d);
    spec.noc.des_check_rate = 0.3;  // flit-level cross-check as in bench
    registry.add(spec);
  }

  // Fig. 8(b): 512 modules.
  {
    TopologySpec mesh2d;
    mesh2d.kind = TopologySpec::Kind::kMesh2d;
    mesh2d.kx = 32;
    mesh2d.ky = 16;
    ScenarioSpec spec = noc_scenario("fig08b_mesh2d_32x16",
                                     "Fig. 8(b): 32x16 2D mesh (512 modules)",
                                     mesh2d);
    spec.noc.injection_rates = linspace(0.01, 0.7, 18);
    registry.add(spec);
  }
  {
    TopologySpec mesh3d;
    mesh3d.kind = TopologySpec::Kind::kMesh3d;
    mesh3d.kx = 8;
    mesh3d.ky = 8;
    mesh3d.kz = 8;
    ScenarioSpec spec = noc_scenario("fig08b_mesh3d_8x8x8",
                                     "Fig. 8(b): 8x8x8 3D mesh (512 modules)",
                                     mesh3d);
    spec.noc.injection_rates = linspace(0.01, 0.7, 18);
    registry.add(spec);
  }
  {
    TopologySpec star_irl;
    star_irl.kind = TopologySpec::Kind::kStarMeshIrl;
    star_irl.kx = 4;
    star_irl.ky = 4;
    star_irl.concentration = 4;
    star_irl.irl = 2;
    registry.add(noc_scenario(
        "ablation_star_mesh_irl",
        "Sec. IV: star-mesh with parallel inter-router links (sweep irl)",
        star_irl));
  }

  {
    ScenarioSpec spec;
    spec.name = "ablation_vertical_links";
    spec.description =
        "Sec. IV: 4-layer NiCS vertical-link density/technology base";
    spec.workload = "nics_stack";
    registry.add(spec);
  }
  {
    ScenarioSpec spec;
    spec.name = "ablation_hybrid_system";
    spec.description =
        "Sec. VI: backplane bus vs direct wireless board-to-board links";
    spec.workload = "hybrid_system";
    registry.add(spec);
  }
  {
    ScenarioSpec spec;
    spec.name = "fig10_coding_plan";
    spec.description =
        "Fig. 10: LDPC-CC operating points under a latency budget";
    spec.workload = "coding_plan";
    registry.add(spec);
  }
  {
    ScenarioSpec spec;
    spec.name = "fig02_impulse_50mm";
    spec.description =
        "Fig. 2: impulse response at 50 mm, free space vs copper boards";
    spec.workload = "impulse_response";
    registry.add(spec);
  }
  {
    ScenarioSpec spec;
    spec.name = "fig03_impulse_150mm";
    spec.description =
        "Fig. 3: impulse response at 150 mm (diagonal link, rotated boards)";
    spec.workload = "impulse_response";
    auto& impulse = spec.payload<ImpulseSpec>();
    impulse.distance_m = 0.15;
    impulse.max_delay_ns = 2.0;
    impulse.seed = 23;
    registry.add(spec);
  }
  {
    ScenarioSpec spec;
    spec.name = "fig05_isi_filters";
    spec.description =
        "Fig. 5: the four ISI filter designs for the 1-bit 5x-OS receiver";
    spec.workload = "isi_filters";
    registry.add(spec);
  }
  {
    ScenarioSpec spec;
    spec.name = "fig06_info_rates";
    spec.description =
        "Fig. 6: information rates of 4-ASK with 1-bit quantization";
    spec.workload = "info_rates";
    registry.add(spec);
  }
  {
    ScenarioSpec spec;
    spec.name = "ablation_adc_energy";
    spec.description =
        "Sec. III: ADC energy per information bit across front-ends";
    spec.workload = "adc_energy";
    registry.add(spec);
  }
  {
    ScenarioSpec spec;
    spec.name = "ablation_threshold_saturation";
    spec.description =
        "BEC threshold saturation of the (4,8) ensemble behind Fig. 10";
    spec.workload = "threshold_saturation";
    registry.add(spec);
  }
  {
    ScenarioSpec spec;
    spec.name = "fig10_ldpc_latency";
    spec.description =
        "Fig. 10: required Eb/N0 vs decoding latency (Monte-Carlo BER)";
    spec.workload = "ldpc_latency";
    registry.add(spec);
  }

  // Campaign-sized stochastic scenarios: deliberately small Monte-Carlo
  // budgets so an 8-seed campaign stays in CI-friendly time. Their
  // statistical goldens live in results/golden/campaign/ and are
  // checked with `wi_run --seeds 8 --check-ci` (the campaign-check CI
  // job); the two families are the paper's stochastic quantities —
  // information rates from simulated bit sequences and flit-level DES
  // latency under random traffic.
  {
    ScenarioSpec spec;
    spec.name = "campaign_info_rates";
    spec.description =
        "Campaign family: Fig. 6 information rates, reduced Monte-Carlo "
        "budget for multi-seed statistics";
    spec.workload = "info_rates";
    auto& info_rate = spec.payload<InfoRateSpec>();
    info_rate.snr_lo_db = 0.0;
    info_rate.snr_hi_db = 30.0;
    info_rate.snr_step_db = 10.0;
    info_rate.mc_symbols = 6000;
    registry.add(spec);
  }
  {
    ScenarioSpec spec;
    spec.name = "campaign_adc_energy";
    spec.description =
        "Campaign family: Sec. III ADC energy per bit, reduced "
        "Monte-Carlo budget for multi-seed statistics";
    spec.workload = "adc_energy";
    spec.payload<AdcSpec>().mc_symbols = 6000;
    registry.add(spec);
  }
  {
    TopologySpec mesh2d;
    mesh2d.kind = TopologySpec::Kind::kMesh2d;
    mesh2d.kx = 8;
    mesh2d.ky = 8;
    ScenarioSpec spec = noc_scenario(
        "campaign_flit_mesh2d_8x8",
        "Campaign family: flit-level DES on the 8x8 2D mesh, uniform "
        "traffic (stochastic Fig. 8(a) counterpart)",
        mesh2d);
    spec.workload = "flit_sim";
    auto& flit = spec.payload<FlitSimSpec>();
    flit.warmup_cycles = 1000;
    flit.measure_cycles = 4000;
    registry.add(spec);
  }
  {
    TopologySpec star;
    star.kind = TopologySpec::Kind::kStarMesh;
    star.kx = 4;
    star.ky = 4;
    star.concentration = 4;
    ScenarioSpec spec = noc_scenario(
        "campaign_flit_star_mesh_4x4c4",
        "Campaign family: flit-level DES on the 4x4 star-mesh, "
        "concentration 4 (stochastic Fig. 8(a) counterpart)",
        star);
    spec.workload = "flit_sim";
    auto& flit = spec.payload<FlitSimSpec>();
    flit.warmup_cycles = 1000;
    flit.measure_cycles = 4000;
    registry.add(spec);
  }

  // Large-mesh DES: 4096 modules, intractable under the cycle-stepped
  // loop (every router every cycle) but minutes-to-seconds on the
  // event-wheel core, which only turns routers with pending work. The
  // golden pins the event core's behaviour at scale; rates stay below
  // the 16-ary mesh's bisection knee so the run drains and the numbers
  // are latency-meaningful.
  {
    TopologySpec mesh3d;
    mesh3d.kind = TopologySpec::Kind::kMesh3d;
    mesh3d.kx = 16;
    mesh3d.ky = 16;
    mesh3d.kz = 16;
    ScenarioSpec spec = noc_scenario(
        "flit_mesh3d_16x16x16",
        "Large-mesh DES: 16x16x16 3D mesh (4096 modules), uniform "
        "traffic on the event-wheel core",
        mesh3d);
    spec.workload = "flit_sim";
    auto& flit = spec.payload<FlitSimSpec>();
    flit.injection_rates = {0.01, 0.02, 0.04};
    flit.warmup_cycles = 500;
    flit.measure_cycles = 2000;
    flit.drain_cycles = 4000;
    registry.add(spec);
  }

  // Huge-mesh DES: 32768 routers. A dense traffic matrix/CDF alone
  // would be 32768^2 doubles (~8.6 GB) and the dense routing table
  // another gigabyte — this scenario only exists because the implicit
  // traffic mode samples destinations in closed form and the event core
  // computes dimension-ordered next-hops from mesh coordinates, keeping
  // setup memory O(routers). The golden doubles as the memory-scaling
  // regression anchor (CI runs it under a hard RSS ceiling).
  {
    TopologySpec mesh3d;
    mesh3d.kind = TopologySpec::Kind::kMesh3d;
    mesh3d.kx = 32;
    mesh3d.ky = 32;
    mesh3d.kz = 32;
    ScenarioSpec spec = noc_scenario(
        "flit_mesh3d_32x32x32",
        "Huge-mesh DES: 32x32x32 3D mesh (32768 modules), implicit "
        "uniform traffic and computed mesh routing (O(routers) memory)",
        mesh3d);
    spec.workload = "flit_sim";
    auto& flit = spec.payload<FlitSimSpec>();
    flit.injection_rates = {0.005, 0.01};
    flit.warmup_cycles = 500;
    flit.measure_cycles = 2000;
    flit.drain_cycles = 4000;
    registry.add(spec);
  }

  // Analytic-pattern DES scenarios: hotspot and transpose on a 16x16
  // mesh, sampled through the implicit pattern layer (no dense matrix).
  {
    TopologySpec mesh2d;
    mesh2d.kind = TopologySpec::Kind::kMesh2d;
    mesh2d.kx = 16;
    mesh2d.ky = 16;
    ScenarioSpec spec = noc_scenario(
        "flit_hotspot_mesh2d_16x16",
        "Flit-level DES on the 16x16 2D mesh, implicit hotspot traffic "
        "(10% of load directed at the central module)",
        mesh2d);
    spec.workload = "flit_sim";
    spec.noc.traffic = TrafficKind::kHotspot;
    spec.noc.hotspot_module = 136;  // router (8, 8): mesh centre
    spec.noc.hotspot_fraction = 0.1;
    auto& flit = spec.payload<FlitSimSpec>();
    flit.injection_rates = {0.01, 0.02};
    flit.warmup_cycles = 1000;
    flit.measure_cycles = 4000;
    registry.add(spec);
  }
  {
    TopologySpec mesh2d;
    mesh2d.kind = TopologySpec::Kind::kMesh2d;
    mesh2d.kx = 16;
    mesh2d.ky = 16;
    ScenarioSpec spec = noc_scenario(
        "flit_transpose_mesh2d_16x16",
        "Flit-level DES on the 16x16 2D mesh, implicit transpose "
        "permutation traffic (module i -> i + 128 mod 256)",
        mesh2d);
    spec.workload = "flit_sim";
    spec.noc.traffic = TrafficKind::kTranspose;
    auto& flit = spec.payload<FlitSimSpec>();
    flit.injection_rates = {0.02, 0.05};
    flit.warmup_cycles = 1000;
    flit.measure_cycles = 4000;
    registry.add(spec);
  }

  // Plugin-only workloads (registered purely through the workload
  // layer; the engine and the codec never name them).
  {
    TopologySpec mesh2d;
    mesh2d.kind = TopologySpec::Kind::kMesh2d;
    mesh2d.kx = 8;
    mesh2d.ky = 8;
    ScenarioSpec spec = noc_scenario(
        "noc_saturation_mesh2d_8x8",
        "Saturation sweep of the 8x8 2D mesh: latency-vs-load knee",
        mesh2d);
    spec.workload = "noc_saturation";
    registry.add(spec);
  }
  {
    TopologySpec star;
    star.kind = TopologySpec::Kind::kStarMesh;
    star.kx = 4;
    star.ky = 4;
    star.concentration = 4;
    ScenarioSpec spec = noc_scenario(
        "noc_saturation_star_mesh_4x4c4",
        "Saturation sweep of the 4x4 star-mesh (concentration 4): "
        "latency-vs-load knee",
        star);
    spec.workload = "noc_saturation";
    registry.add(spec);
  }
  // Failure-injection sweeps: the Fig. 8(a) topologies under scheduled
  // link/router deaths with reroute (ROADMAP scenario-diversity item).
  {
    TopologySpec mesh2d;
    mesh2d.kind = TopologySpec::Kind::kMesh2d;
    mesh2d.kx = 8;
    mesh2d.ky = 8;
    ScenarioSpec spec = noc_scenario(
        "fault_sweep_mesh2d_8x8",
        "Failure sweep of the 8x8 2D mesh: latency/throughput degradation "
        "vs link/router failure rate under rerouting",
        mesh2d);
    spec.workload = "fault_sweep";
    registry.add(spec);
  }
  {
    TopologySpec star;
    star.kind = TopologySpec::Kind::kStarMesh;
    star.kx = 4;
    star.ky = 4;
    star.concentration = 4;
    ScenarioSpec spec = noc_scenario(
        "fault_sweep_star_mesh_4x4c4",
        "Failure sweep of the 4x4 star-mesh (concentration 4): central "
        "routers are high-value targets, so degradation is steeper",
        star);
    spec.workload = "fault_sweep";
    registry.add(spec);
  }
  {
    TopologySpec mesh2d;
    mesh2d.kind = TopologySpec::Kind::kMesh2d;
    mesh2d.kx = 8;
    mesh2d.ky = 8;
    ScenarioSpec spec = noc_scenario(
        "campaign_fault_mesh2d_8x8",
        "Campaign family: failure sweep of the 8x8 2D mesh across "
        "failure seeds (statistical degradation envelope)",
        mesh2d);
    spec.workload = "fault_sweep";
    auto& sweep = spec.payload<FaultSweepSpec>();
    sweep.fail_rates = {0.0, 0.05, 0.15};
    sweep.measure_cycles = 3000;
    sweep.drain_cycles = 6000;
    registry.add(spec);
  }

  {
    ScenarioSpec spec;
    spec.name = "link_margin_map";
    spec.description =
        "Per-link SNR margin of the two-board 2x2-node geometry vs the "
        "planning target and the 100 Gbit/s receiver requirement";
    spec.workload = "link_margin_map";
    spec.geometry.nodes_per_edge = 2;
    spec.phy.receiver = core::PhyReceiver::kOneBitSymbolwise;
    registry.add(spec);
  }

  return registry;
}

}  // namespace

const ScenarioRegistry& ScenarioRegistry::paper() {
  static const ScenarioRegistry registry = build_paper_registry();
  return registry;
}

}  // namespace wi::sim
