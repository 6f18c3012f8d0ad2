/// Property-based round-trip belt: ~200 randomized Tables and
/// ScenarioSpecs pushed through the CSV and JSON codecs, asserting
/// decode(encode(x)) == x. Seeded with wi::Rng, so every failure is
/// reproducible from the iteration index alone. The cell generator
/// deliberately produces the nasty cases the codecs claim to handle:
/// NaN/inf strings, empty cells, commas, quotes, newlines, headerless
/// placeholder tables and empty (zero-row) tables.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "wi/common/rng.hpp"
#include "wi/common/table.hpp"
#include "wi/common/table_io.hpp"
#include "wi/sim/sim.hpp"

namespace wi {
namespace {

constexpr std::size_t kIterations = 200;

/// Random cell content spanning numbers, specials and quoting hazards.
[[nodiscard]] std::string random_cell(Rng& rng) {
  switch (rng.uniform_int(8)) {
    case 0:
      return "";  // empty cell
    case 1:
      return Table::num(rng.uniform(-1e6, 1e6), 6);
    case 2: {
      const char* specials[] = {"nan", "-nan", "inf", "-inf", "-", "sat"};
      return specials[rng.uniform_int(6)];
    }
    case 3: {  // quoting hazards
      const char* hazards[] = {"a,b", "he said \"hi\"", "line\nbreak",
                               ",", "\"\"", " leading and trailing "};
      return hazards[rng.uniform_int(6)];
    }
    default: {  // plain short token
      std::string s;
      const std::size_t n = rng.uniform_int(8);
      for (std::size_t i = 0; i < n; ++i) {
        s += static_cast<char>('a' + rng.uniform_int(26));
      }
      return s;
    }
  }
}

[[nodiscard]] Table random_table(Rng& rng) {
  if (rng.uniform_int(16) == 0) return Table();  // headerless placeholder
  const std::size_t columns = 1 + rng.uniform_int(5);
  std::vector<std::string> headers;
  for (std::size_t c = 0; c < columns; ++c) {
    // Headers must be unique? No — the Table does not require it; keep
    // them printable but allow hazards too.
    std::string header = "h";
    header += std::to_string(c);
    if (rng.uniform_int(4) == 0) header += ",x";
    headers.push_back(std::move(header));
  }
  Table table(std::move(headers));
  const std::size_t rows = rng.uniform_int(9);  // 0..8, empty included
  for (std::size_t r = 0; r < rows; ++r) {
    std::vector<std::string> cells;
    for (std::size_t c = 0; c < columns; ++c) {
      cells.push_back(random_cell(rng));
    }
    table.add_row(std::move(cells));
  }
  return table;
}

TEST(PropertyRoundTrip, TablesSurviveCsv) {
  Rng rng(20260729);
  for (std::size_t i = 0; i < kIterations; ++i) {
    const Table table = random_table(rng);
    const Table decoded = table_from_csv(to_csv(table));
    EXPECT_EQ(decoded, table) << "iteration " << i;
  }
}

TEST(PropertyRoundTrip, TablesSurviveJson) {
  Rng rng(20260730);
  for (std::size_t i = 0; i < kIterations; ++i) {
    const Table table = random_table(rng);
    const Table decoded =
        table_from_json(Json::parse(table_to_json(table).dump()));
    EXPECT_EQ(decoded, table) << "iteration " << i;
    // Pretty-printing must not change the parsed value either.
    const Table pretty =
        table_from_json(Json::parse(table_to_json(table).dump(2)));
    EXPECT_EQ(pretty, table) << "iteration " << i;
  }
}

// ---------------------------------------------------------------------------
// ScenarioSpec fuzzing. The spec has no operator==; the canonical
// serialization is the identity that matters (it is what the result
// store hashes), so the property is encode(decode(encode(x))) ==
// encode(x).

template <typename Enum>
[[nodiscard]] Enum random_enum(Rng& rng, std::initializer_list<Enum> values) {
  return values.begin()[rng.uniform_int(values.size())];
}

/// Seeds must stay <= 2^53: the JSON codec rejects integers a double
/// cannot represent exactly (by design — they could not round-trip).
[[nodiscard]] std::uint64_t random_seed(Rng& rng) {
  return rng() & ((1ULL << 53) - 1);
}

[[nodiscard]] sim::ScenarioSpec random_spec(Rng& rng) {
  using namespace wi::sim;
  ScenarioSpec spec;
  spec.name = "fuzz_" + std::to_string(rng.uniform_int(1u << 20));
  spec.description = random_cell(rng);
  // Every registered workload, including plugin-only ones: the codec
  // must round-trip any of them.
  const std::vector<std::string> workloads =
      WorkloadRegistry::global().names();
  spec.workload = workloads[rng.uniform_int(workloads.size())];
  spec.geometry.boards = 1 + rng.uniform_int(8);
  spec.geometry.board_size_mm = rng.uniform(1.0, 500.0);
  spec.geometry.separation_mm = rng.uniform(1.0, 500.0);
  spec.geometry.nodes_per_edge = 1 + rng.uniform_int(8);
  spec.link.budget.carrier_freq_hz = rng.uniform(1e9, 1e12);
  spec.link.budget.bandwidth_hz = rng.uniform(1e9, 1e11);
  spec.link.beamforming = random_enum(
      rng, {core::Beamforming::kIdealSteering,
            core::Beamforming::kButlerMatrix});
  spec.link.ptx_dbm = rng.uniform(-30.0, 30.0);
  spec.phy.receiver = random_enum(
      rng, {core::PhyReceiver::kOneBitSequence,
            core::PhyReceiver::kOneBitSymbolwise,
            core::PhyReceiver::kOneBitRect, core::PhyReceiver::kUnquantized});
  spec.phy.polarizations = 1 + rng.uniform_int(2);
  spec.noc.topology.kind = random_enum(
      rng, {sim::TopologySpec::Kind::kMesh2d,
            sim::TopologySpec::Kind::kStarMesh,
            sim::TopologySpec::Kind::kStarMeshIrl,
            sim::TopologySpec::Kind::kMesh3d,
            sim::TopologySpec::Kind::kCiliatedMesh3d,
            sim::TopologySpec::Kind::kPartialVertical3d});
  spec.noc.topology.kx = 1 + rng.uniform_int(16);
  spec.noc.topology.ky = 1 + rng.uniform_int(16);
  spec.noc.topology.kz = 1 + rng.uniform_int(8);
  spec.noc.topology.concentration = 1 + rng.uniform_int(4);
  spec.noc.traffic = random_enum(
      rng, {sim::TrafficKind::kUniform, sim::TrafficKind::kTranspose,
            sim::TrafficKind::kBitComplement, sim::TrafficKind::kHotspot});
  spec.noc.routing = random_enum(rng, {sim::RoutingKind::kDimensionOrder,
                                       sim::RoutingKind::kShortestPath});
  const std::size_t rates = rng.uniform_int(6);
  spec.noc.injection_rates.clear();
  for (std::size_t i = 0; i < rates; ++i) {
    spec.noc.injection_rates.push_back(rng.uniform(0.0, 1.0));
  }
  spec.noc.des_seed = random_seed(rng);
  // Randomize the selected workload's payload (shared sections above
  // fuzz every spec; the payload only exists for its own workload).
  if (spec.workload == "pathloss_campaign") {
    spec.payload<sim::PathlossSpec>().seed = random_seed(rng);
  } else if (spec.workload == "flit_sim") {
    auto& flit = spec.payload<sim::FlitSimSpec>();
    flit.seed = random_seed(rng);
    flit.warmup_cycles = rng.uniform_int(5000);
    flit.measure_cycles = 1 + rng.uniform_int(20000);
    flit.injection_rates = spec.noc.injection_rates;
  } else if (spec.workload == "nics_stack") {
    auto& config = spec.payload<sim::NicsSpec>().config;
    config.tech = random_enum(
        rng,
        {core::VerticalLinkTech::kTsv, core::VerticalLinkTech::kInductive,
         core::VerticalLinkTech::kCapacitive});
    config.vertical_period = 1 + rng.uniform_int(4);
  } else if (spec.workload == "hybrid_system") {
    spec.payload<sim::HybridSpec>().config.inter_board_fraction =
        rng.uniform(0.0, 1.0);
  } else if (spec.workload == "impulse_response") {
    auto& impulse = spec.payload<sim::ImpulseSpec>();
    impulse.distance_m = rng.uniform(0.01, 0.5);
    impulse.seed = random_seed(rng);
  } else if (spec.workload == "isi_filters") {
    auto& isi = spec.payload<sim::IsiSpec>();
    isi.mc_symbols = 1 + rng.uniform_int(100000);
    isi.mc_seed = random_seed(rng);
    isi.reoptimize = rng.bernoulli(0.5);
  } else if (spec.workload == "info_rates") {
    auto& info_rate = spec.payload<sim::InfoRateSpec>();
    info_rate.snr_lo_db = rng.uniform(-10.0, 0.0);
    info_rate.snr_hi_db = rng.uniform(0.0, 40.0);
    info_rate.mc_seed = random_seed(rng);
  } else if (spec.workload == "adc_energy") {
    spec.payload<sim::AdcSpec>().mc_seed = random_seed(rng);
  } else if (spec.workload == "threshold_saturation") {
    spec.payload<sim::SaturationSpec>().terminations = {
        1 + rng.uniform_int(64)};
  } else if (spec.workload == "ldpc_latency") {
    auto& ldpc = spec.payload<sim::LdpcLatencySpec>();
    ldpc.cc_curves = {{1 + rng.uniform_int(64), 3, 8}};
    ldpc.bc_liftings = {1 + rng.uniform_int(400)};
    ldpc.target_ber = rng.uniform(1e-6, 1e-2);
  } else if (spec.workload == "tx_power_sweep") {
    spec.payload<sim::TxPowerSpec>().snr_hi_db = rng.uniform(10.0, 40.0);
  } else if (spec.workload == "coding_plan") {
    spec.payload<sim::CodingSpec>().deployed_lifting =
        1 + rng.uniform_int(64);
  } else if (spec.workload == "noc_saturation") {
    auto& saturation = spec.payload<sim::NocSaturationSpec>();
    saturation.steps = 2 + rng.uniform_int(32);
    saturation.knee_factor = rng.uniform(1.1, 4.0);
  } else if (spec.workload == "link_margin_map") {
    spec.payload<sim::LinkMarginSpec>().min_rate_gbps =
        rng.uniform(10.0, 200.0);
  }
  return spec;
}

TEST(PropertyRoundTrip, ScenarioSpecsSurviveJson) {
  using namespace wi::sim;
  Rng rng(20260731);
  for (std::size_t i = 0; i < kIterations; ++i) {
    const ScenarioSpec spec = random_spec(rng);
    const std::string canonical = scenario_to_string(spec);
    const ScenarioSpec decoded = scenario_from_string(canonical);
    EXPECT_EQ(scenario_to_string(decoded), canonical) << "iteration " << i;
  }
}

TEST(PropertyRoundTrip, CampaignSpecsSurviveJson) {
  using namespace wi::sim;
  Rng rng(20260801);
  for (std::size_t i = 0; i < kIterations; ++i) {
    CampaignSpec campaign;
    campaign.name = "fuzz_campaign_" + std::to_string(i);
    campaign.seeds = 1 + rng.uniform_int(64);
    campaign.base_seed = random_seed(rng);
    campaign.scenario = random_spec(rng);
    const std::string canonical = campaign_to_string(campaign);
    const CampaignSpec decoded = campaign_from_string(canonical);
    EXPECT_EQ(campaign_to_string(decoded), canonical) << "iteration " << i;
  }
}

}  // namespace
}  // namespace wi
