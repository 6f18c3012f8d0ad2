/// \file batch.cpp
/// \brief The closed-loop batch workloads (ldpc, noc_small) and their
///        timed and traced runs.

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <utility>

#include "util.hpp"
#include "wi/common/rng.hpp"
#include "wi/fec/ber.hpp"
#include "wi/noc/flit_sim.hpp"
#include "wi/sim/engine.hpp"
#include "wi/sim/result_store.hpp"
#include "wi/sim/scenario_json.hpp"
#include "wi/sim/workload.hpp"
#include "wi/sim/workloads/flit_sim.hpp"
#include "wi/sim/workloads/ldpc_latency.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using wi::Table;
using wi::sim::ScenarioSpec;

std::vector<std::string> runner_headers(const std::string& workload) {
  return wi::sim::WorkloadRegistry::global().get(workload).headers();
}

/// Seeded permutation of 0..n-1 (Fisher-Yates on mix()).
std::vector<std::size_t> permutation(std::uint64_t seed, std::size_t n) {
  std::vector<std::size_t> p(n);
  std::iota(p.begin(), p.end(), std::size_t{0});
  for (std::size_t i = n; i > 1; --i) {
    std::swap(p[i - 1], p[mix(seed, i) % i]);
  }
  return p;
}

/// DES / BER seeds must survive the JSON codec's doubles.
std::uint64_t json_seed(std::uint64_t seed, std::uint64_t index) {
  return mix(seed, index) >> 11;
}

double total_ms(const std::map<std::string, SpanTotals>& spans,
                const std::string& name) {
  const auto it = spans.find(name);
  return it == spans.end() ? 0.0 : it->second.total_ms;
}

double mean_ms(const std::map<std::string, SpanTotals>& spans,
               const std::string& name) {
  const auto it = spans.find(name);
  return it == spans.end() ? 0.0 : it->second.mean_ms();
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// --- ldpc -------------------------------------------------------------

/// Fig. 10 required Eb/N0 searches at a reduced per-point budget. One op
/// holds two LDPC-CC (N, W) points of the paper's grid plus one LDPC-BC
/// point. Ops walk a fixed 15-op cycle that covers the 15 CC points
/// twice and the 5 BC points three times; the seed picks where each run
/// enters the cycle and the Eb/N0 bracket of every op. Batches are whole
/// cycles, so every seed does the same mix of searches. The BER seeds
/// stay the workload runner's own (1000+N+W, 2000+N).
class LdpcWorkload final : public BatchWorkload {
 public:
  std::string name() const override { return "ldpc"; }

  std::size_t ops_for(double seconds) const override {
    const double cycles = std::ceil(kOpsPerSecond * seconds / kCycle);
    return kCycle * static_cast<std::size_t>(cycles);
  }

  ScenarioSpec make_op(std::uint64_t seed, std::size_t index) const override {
    static const std::vector<std::pair<std::size_t, std::size_t>> kCcGrid = [] {
      std::vector<std::pair<std::size_t, std::size_t>> grid;
      for (std::size_t w = 3; w <= 8; ++w) grid.emplace_back(25, w);
      for (std::size_t w = 3; w <= 8; ++w) grid.emplace_back(40, w);
      for (std::size_t w = 4; w <= 6; ++w) grid.emplace_back(60, w);
      return grid;
    }();
    static const std::vector<std::size_t> kBcGrid = {100, 150, 200, 300, 400};
    static const std::vector<std::size_t> kCcOrder =
        permutation(0x1dbc, kCcGrid.size());
    const std::size_t slot = (index + mix(seed, 1) % kCycle) % kCycle;

    ScenarioSpec spec;
    spec.name = "perfbench_ldpc";
    spec.workload = "ldpc_latency";
    auto& l = spec.payload<wi::sim::LdpcLatencySpec>();
    l.target_ber = 1e-3;
    l.min_errors = 5;
    l.max_codewords = 3;
    l.max_bp_iterations = 20;
    l.termination = 10;
    l.cc_curves.clear();
    for (std::size_t j = 0; j < 2; ++j) {
      const auto [n, w] = kCcGrid[kCcOrder[(2 * slot + j) % kCycle]];
      l.cc_curves.push_back({n, w, w});
    }
    l.bc_liftings = {kBcGrid[slot % kBcGrid.size()]};
    l.search_lo_db = 1.0 + 0.5 * golden_sequence(unit(seed, 3), index);
    l.search_hi_db = 6.0;
    l.search_step_db = 0.5;
    return spec;
  }

  Table replay(const ScenarioSpec& spec, Tracer& tracer,
               Counters& counters) const override {
    using namespace wi::fec;
    const auto& l = spec.payload<wi::sim::LdpcLatencySpec>();
    BpOptions bp;
    bp.max_iterations = static_cast<int>(l.max_bp_iterations);
    // Codes and search results outlive the mirror for the decode probe.
    std::vector<std::unique_ptr<LdpcConvolutionalCode>> cc_codes;
    std::vector<std::tuple<const LdpcConvolutionalCode*, std::size_t, double>>
        cc_points;
    std::vector<std::pair<std::unique_ptr<QcLdpcBlockCode>, double>> bc_points;
    const auto ber_point = [&](auto&& simulate) {
      const auto span = tracer.span("fec.ber_point");
      const BerResult r = simulate();
      counters["fec.codewords"] += static_cast<double>(r.codewords);
      counters["fec.ber_points"] += 1.0;
      return r;
    };

    Table table(runner_headers(spec.workload));
    {
      const auto mirror = tracer.span("replay.mirror");
      for (const auto& curve : l.cc_curves) {
        const std::size_t n = curve.lifting;
        {
          const auto span = tracer.span("fec.code_build");
          cc_codes.push_back(std::make_unique<LdpcConvolutionalCode>(
              EdgeSpreading::paper_example(), n, l.termination, n));
        }
        const LdpcConvolutionalCode& code = *cc_codes.back();
        for (std::size_t w = curve.window_lo; w <= curve.window_hi; ++w) {
          const auto simulate = [&](double ebn0) {
            BerConfig config;
            config.ebn0_db = ebn0;
            config.min_errors = l.min_errors;
            config.max_codewords = l.max_codewords;
            config.seed = 1000 + n + w;
            config.bp = bp;
            return ber_point([&] { return simulate_ber_window(code, w, config); });
          };
          const double ebn0 =
              required_ebn0_db(simulate, l.target_ber, l.search_lo_db,
                               l.search_hi_db, l.search_step_db);
          table.add_row(
              {"LDPC-CC", Table::num(static_cast<long long>(n)),
               Table::num(static_cast<long long>(w)),
               Table::num(window_decoder_latency_bits(w, n, code.nv(),
                                                      code.rate_asymptotic()),
                          0),
               Table::num(ebn0, 2)});
          cc_points.emplace_back(&code, w, ebn0);
        }
      }
      for (const std::size_t n : l.bc_liftings) {
        std::unique_ptr<QcLdpcBlockCode> code;
        {
          const auto span = tracer.span("fec.code_build");
          code = std::make_unique<QcLdpcBlockCode>(BaseMatrix({{4, 4}}), n, n);
        }
        const auto simulate = [&](double ebn0) {
          BerConfig config;
          config.ebn0_db = ebn0;
          config.min_errors = l.min_errors;
          config.max_codewords = l.max_codewords;
          config.seed = 2000 + n;
          config.bp = bp;
          return ber_point([&] { return simulate_ber_block(*code, config); });
        };
        const double ebn0 =
            required_ebn0_db(simulate, l.target_ber, l.search_lo_db,
                             l.search_hi_db, l.search_step_db);
        table.add_row({"LDPC-BC", Table::num(static_cast<long long>(n)), "-",
                       Table::num(block_code_latency_bits(n, 2, 0.5), 0),
                       Table::num(ebn0, 2)});
        bc_points.emplace_back(std::move(code), ebn0);
      }
    }

    // Decode probe: the decoders alone, on channel LLRs drawn here for
    // the same code at the Eb/N0 each search found.
    const auto probe = tracer.span("replay.probe");
    const auto draw = [](wi::Rng& rng, std::vector<double>& llr, double ebn0,
                         double rate) {
      const double sigma =
          std::sqrt(1.0 / (2.0 * rate * std::pow(10.0, ebn0 / 10.0)));
      const double scale = 2.0 / (sigma * sigma);
      for (double& v : llr) v = scale * (1.0 + sigma * rng.gaussian());
    };
    for (const auto& [code, w, ebn0] : cc_points) {
      const WindowDecoder decoder(*code, w, bp);
      wi::Rng rng(3000 + code->lifting() + w);
      std::vector<double> llr(code->codeword_length());
      for (std::size_t k = 0; k < kProbeCodewords; ++k) {
        draw(rng, llr, ebn0, code->rate_asymptotic());
        WindowDecodeResult r;
        {
          const auto span = tracer.span("fec.decode");
          r = decoder.decode(llr);
        }
        counters["fec.probe_codewords"] += 1.0;
        counters["fec.probe_bp_iterations"] += static_cast<double>(r.bp_iterations);
        counters["fec.probe_bp_runs"] += static_cast<double>(r.windows_run);
        counters["fec.probe_unconverged"] += static_cast<double>(r.unconverged);
      }
    }
    for (const auto& [code, ebn0] : bc_points) {
      const BpDecoder decoder(code->parity_check());
      wi::Rng rng(4000 + code->lifting());
      std::vector<double> llr(code->block_length());
      for (std::size_t k = 0; k < kProbeCodewords; ++k) {
        draw(rng, llr, ebn0, code->design_rate());
        BpResult r;
        {
          const auto span = tracer.span("fec.decode");
          r = decoder.decode(llr, bp);
        }
        counters["fec.probe_codewords"] += 1.0;
        counters["fec.probe_bp_iterations"] += static_cast<double>(r.iterations);
        counters["fec.probe_bp_runs"] += 1.0;
        counters["fec.probe_unconverged"] += r.converged ? 0.0 : 1.0;
      }
    }
    return table;
  }

  void layer_metrics(const std::map<std::string, SpanTotals>& spans,
                     const Counters& c,
                     std::map<std::string, double>& out) const override {
    const auto count = [&](const char* key) {
      const auto it = c.find(key);
      return it == c.end() ? 0.0 : it->second;
    };
    out["fec.code_build_ms"] = mean_ms(spans, "fec.code_build");
    out["fec.ber_point_ms"] = mean_ms(spans, "fec.ber_point");
    out["fec.ber_points"] = count("fec.ber_points");
    out["fec.codewords"] = count("fec.codewords");
    out["fec.decode_us_per_codeword"] =
        ratio(total_ms(spans, "fec.decode") * 1e3, count("fec.probe_codewords"));
    out["fec.bp_iterations_per_codeword"] =
        ratio(count("fec.probe_bp_iterations"), count("fec.probe_codewords"));
    out["fec.unconverged_ratio"] =
        ratio(count("fec.probe_unconverged"), count("fec.probe_bp_runs"));
  }

 private:
  static constexpr std::size_t kCycle = 15;
  static constexpr double kOpsPerSecond = 5.25;
  static constexpr std::size_t kProbeCodewords = 2;
};

// --- noc --------------------------------------------------------------

/// One flit_sim op per injection rate: the topology/routing/traffic
/// builds, then the DES.
class FlitWorkloadBase : public BatchWorkload {
 public:
  Table replay(const ScenarioSpec& spec, Tracer& tracer,
               Counters& counters) const override {
    namespace noc = wi::noc;
    const auto& flit = spec.payload<wi::sim::FlitSimSpec>();
    Table table(runner_headers(spec.workload));
    const auto mirror = tracer.span("replay.mirror");
    const double rss0 = current_rss_mb();
    const noc::Topology topology = [&] {
      const auto span = tracer.span("noc.topology_build");
      return spec.noc.topology.build();
    }();
    const auto routing = [&] {
      const auto span = tracer.span("noc.routing_build");
      return spec.noc.build_routing();
    }();
    const noc::TrafficPattern traffic = [&] {
      const auto span = tracer.span("noc.traffic_build");
      return spec.noc.build_traffic(topology.module_count());
    }();
    double& build_rss = counters["noc.build_rss_mb"];
    build_rss = std::max(build_rss, current_rss_mb() - rss0);
    noc::FlitSimConfig config;
    config.warmup_cycles = flit.warmup_cycles;
    config.measure_cycles = flit.measure_cycles;
    config.drain_cycles = flit.drain_cycles;
    config.buffer_depth = flit.buffer_depth;
    config.seed = flit.seed;
    std::vector<double> rates = flit.injection_rates;
    if (rates.empty()) rates = {0.05, 0.1, 0.15, 0.2};
    for (const double rate : rates) {
      const noc::FlitSimResult des = [&] {
        const auto span = tracer.span("noc.simulate");
        return simulate_network(topology, *routing, traffic, rate, config);
      }();
      counters["noc.turns"] += static_cast<double>(des.turns_executed);
      counters["noc.delivered"] += static_cast<double>(des.delivered);
      table.add_row(
          {Table::num(rate, 3), Table::num(des.mean_latency_cycles, 4),
           Table::num(des.delivered_per_cycle, 5),
           Table::num(static_cast<long long>(des.delivered)),
           Table::num(static_cast<long long>(des.injected)),
           des.stable ? "yes" : "no"});
    }
    return table;
  }

  void layer_metrics(const std::map<std::string, SpanTotals>& spans,
                     const Counters& c,
                     std::map<std::string, double>& out) const override {
    const auto count = [&](const char* key) {
      const auto it = c.find(key);
      return it == c.end() ? 0.0 : it->second;
    };
    out["noc.topology_build_ms"] = mean_ms(spans, "noc.topology_build");
    out["noc.routing_build_ms"] = mean_ms(spans, "noc.routing_build");
    out["noc.traffic_build_ms"] = mean_ms(spans, "noc.traffic_build");
    out["noc.build_rss_mb"] = count("noc.build_rss_mb");
    out["noc.simulate_ms"] = mean_ms(spans, "noc.simulate");
    out["noc.turns"] = count("noc.turns");
    out["noc.delivered"] = count("noc.delivered");
    out["noc.ns_per_turn"] =
        ratio(total_ms(spans, "noc.simulate") * 1e6, count("noc.turns"));
    out["noc.turns_per_delivered"] =
        ratio(count("noc.turns"), count("noc.delivered"));
  }

 protected:
  static ScenarioSpec flit_spec(const std::string& name,
                                const wi::sim::TopologySpec& topology,
                                double rate, std::uint64_t des_seed) {
    ScenarioSpec spec;
    spec.name = name;
    spec.workload = "flit_sim";
    spec.noc.topology = topology;
    auto& flit = spec.payload<wi::sim::FlitSimSpec>();
    flit.injection_rates = {rate};
    flit.seed = des_seed;
    return spec;
  }
};

/// The paper's three 64-router Fig. 8(a) networks, one rate per op from
/// light load to near saturation (the analytic model's saturation rates
/// are 0.40, 0.81 and 0.20 flits/cycle/module). Op i runs network i % 3
/// at a low-discrepancy load fraction, so any batch spreads its rates
/// evenly; each op is one DES (campaign) seed.
class NocSmallWorkload final : public FlitWorkloadBase {
 public:
  std::string name() const override { return "noc_small"; }

  std::size_t ops_for(double seconds) const override {
    return static_cast<std::size_t>(std::ceil(kOpsPerSecond * seconds));
  }

  ScenarioSpec make_op(std::uint64_t seed, std::size_t index) const override {
    using Kind = wi::sim::TopologySpec::Kind;
    struct Network {
      Kind kind;
      std::size_t kx, ky, kz, concentration;
      double light, near_saturation;
    };
    static const Network kNetworks[] = {
        {Kind::kMesh2d, 8, 8, 1, 1, 0.02, 0.36},
        {Kind::kMesh3d, 4, 4, 4, 1, 0.04, 0.72},
        {Kind::kStarMesh, 4, 4, 1, 4, 0.01, 0.18},
    };
    const std::size_t which = index % 3;
    const Network& net = kNetworks[which];
    wi::sim::TopologySpec topology;
    topology.kind = net.kind;
    topology.kx = net.kx;
    topology.ky = net.ky;
    topology.kz = net.kz;
    topology.concentration = net.concentration;
    const double load = golden_sequence(unit(seed, 10 + which), index / 3);
    const double rate =
        net.light + (net.near_saturation - net.light) * load;
    return flit_spec("perfbench_noc_small", topology, rate,
                     json_seed(seed, 1000 + index));
  }

 private:
  static constexpr double kOpsPerSecond = 12.5;
};

/// What a batch run needs before its first op: the engine and every op's
/// spec, generated and decoded through the scenario codec.
struct Setup {
  std::unique_ptr<wi::sim::SimEngine> engine;
  std::vector<std::string> text;
  std::vector<ScenarioSpec> specs;
};

Setup set_up(const BatchWorkload& workload, std::uint64_t seed,
             std::size_t ops) {
  Setup setup;
  wi::sim::EngineOptions engine_options;
  engine_options.threads = hardware_threads();
  setup.engine = std::make_unique<wi::sim::SimEngine>(engine_options);
  for (std::size_t i = 0; i < ops; ++i) {
    setup.text.push_back(
        wi::sim::scenario_to_string(workload.make_op(seed, i)));
    setup.specs.push_back(wi::sim::scenario_from_string(setup.text.back()));
  }
  return setup;
}

}  // namespace

std::unique_ptr<BatchWorkload> make_batch_workload(const std::string& name) {
  if (name == "ldpc") return std::make_unique<LdpcWorkload>();
  if (name == "noc_small") return std::make_unique<NocSmallWorkload>();
  return nullptr;
}

RunReport run_batch(const BatchWorkload& workload, const RunOptions& options) {
  RunReport report;
  // The traced run pays for every op three times (engine op, traced
  // replay, untraced replay), so it takes a third of the batch.
  std::size_t ops = workload.ops_for(options.seconds);
  if (options.trace) ops = (ops + 2) / 3;

  const Setup setup = set_up(workload, options.seed, ops);
  const double setup_s = wall_s() - options.spawn_s;
  if (options.setup_only) {
    report.metrics["setup_s"] = setup_s;
    return report;
  }
  const std::vector<ScenarioSpec>& specs = setup.specs;

  std::vector<wi::sim::RunResult> results;
  results.reserve(ops);
  std::vector<double> op_ms;
  std::vector<std::string> replay_digests;
  Tracer tracer;
  Counters counters;
  double traced_s = 0.0;
  double untraced_s = 0.0;

  const double canary_start = canary_ms();
  const double cpu0 = cpu_s();
  const double t0 = wall_s();
  if (!options.trace) {
    for (std::size_t i = 0; i < ops; ++i) {
      const double start = wall_s();
      results.push_back(setup.engine->run(specs[i]));
      op_ms.push_back((wall_s() - start) * 1e3);
    }
  } else {
    // Each op is replayed twice, with the live tracer and with a
    // disabled one, in alternating order; the tracing overhead is the
    // difference of the two replay times over the same ops.
    Tracer untraced(false);
    Counters untraced_counters;
    for (std::size_t i = 0; i < ops; ++i) {
      const auto replay_untraced = [&] {
        const double start = wall_s();
        const ScenarioSpec decoded =
            wi::sim::scenario_from_string(setup.text[i]);
        const std::string digest = table_digest(
            workload.replay(decoded, untraced, untraced_counters));
        untraced_s += wall_s() - start;
        return digest;
      };
      std::string untraced_digest;
      if (i % 2 == 1) untraced_digest = replay_untraced();
      {
        const auto op_span = tracer.span("op", static_cast<int>(i));
        {
          const auto span = tracer.span("sim.engine_run");
          results.push_back(setup.engine->run(specs[i]));
        }
        const double replay_start = wall_s();
        const auto replay = tracer.span("replay");
        const ScenarioSpec decoded = [&] {
          const auto span = tracer.span("sim.spec_decode");
          return wi::sim::scenario_from_string(setup.text[i]);
        }();
        const Table table = workload.replay(decoded, tracer, counters);
        replay_digests.push_back(table_digest(table));
        traced_s += wall_s() - replay_start;
        {
          const auto span = tracer.span("sim.content_key");
          (void)wi::sim::result_content_key(decoded, "perfbench", options.seed);
        }
        {
          const auto span = tracer.span("sim.result_json");
          (void)wi::sim::run_result_to_json(results.back()).dump();
        }
      }
      if (i % 2 == 0) untraced_digest = replay_untraced();
      if (untraced_digest != replay_digests.back()) {
        replay_digests.back() = "untraced " + untraced_digest;
      }
    }
  }
  const double run_s = wall_s() - t0;
  const double cpu = cpu_s() - cpu0;
  const double canary_end = canary_ms();

  // Output checks: status, committed reference, and (traced) the replay.
  const References refs(options.refs_dir, workload.name(), options.seed);
  report.attempted = ops;
  std::size_t unreferenced = 0;
  for (std::size_t i = 0; i < ops; ++i) {
    const wi::sim::RunResult& r = results[i];
    const std::string digest = r.ok() ? table_digest(r.table) : "";
    bool ok = r.ok() && r.table.rows() > 0;
    if (const auto ref = refs.at(i)) {
      ok = ok && digest == *ref;
    } else {
      ++unreferenced;
    }
    // A replay digest of "untraced <digest>" marks an untraced replay
    // that disagreed with the traced one.
    if (options.trace && replay_digests[i] != digest) {
      ok = false;
      report.notes.push_back("op " + std::to_string(i) +
                             ": replay digest " + replay_digests[i] +
                             " != engine digest " + digest);
    }
    if (!ok) ++report.failed;
  }
  if (unreferenced > 0) {
    report.notes.push_back(
        "no committed reference digest for " + std::to_string(unreferenced) +
        " of " + std::to_string(ops) + " ops (seed " +
        std::to_string(options.seed) +
        "): those were checked for an ok status and a non-empty table only");
  }
  const double error_rate = ratio(static_cast<double>(report.failed),
                                  static_cast<double>(ops));
  report.notes.push_back("host.canary_ms start " + std::to_string(canary_start) +
                         " end " + std::to_string(canary_end));

  if (!options.trace) {
    report.notes.push_back("op percentiles over " + std::to_string(ops) +
                           " ops");
    report.metrics["setup_s"] = setup_s;
    report.metrics["run_s"] = run_s;
    report.metrics["cpu_s"] = cpu;
    report.metrics["op_p50_ms"] = quantile(op_ms, 0.5);
    report.metrics["op_p90_ms"] = quantile(op_ms, 0.9);
    report.metrics["peak_rss_mb"] = peak_rss_mb();
    report.metrics["success_rate"] = 1.0 - error_rate;
    return report;
  }

  const auto spans = tracer.totals();
  std::map<std::string, double>& m = report.metrics;
  for (const std::string& name : per_layer_metric_names()) m[name] = 0.0;
  workload.layer_metrics(spans, counters, m);
  const double engine_ms = total_ms(spans, "sim.engine_run");
  const auto mirror = spans.find("replay.mirror");
  const double mirror_ms = mirror == spans.end() ? 0.0 : mirror->second.total_ms;
  const double mirror_layers_ms =
      mirror == spans.end() ? 0.0 : mirror_ms - mirror->second.self_ms;
  const double n = static_cast<double>(ops);
  m["sim.engine_run_ms"] = engine_ms / n;
  m["sim.engine_self_ms"] = (engine_ms - mirror_layers_ms) / n;
  m["sim.spec_decode_us"] = mean_ms(spans, "sim.spec_decode") * 1e3;
  m["sim.content_key_us"] = mean_ms(spans, "sim.content_key") * 1e3;
  m["sim.result_json_us"] = mean_ms(spans, "sim.result_json") * 1e3;
  m["host.canary_ms"] = 0.5 * (canary_start + canary_end);
  m["trace.overhead_s"] = traced_s - untraced_s;
  m["trace.span_coverage"] = tracer.min_child_coverage("replay.mirror");
  if (m["trace.span_coverage"] < 0.9) {
    report.correct = false;
    report.notes.push_back("named spans cover under 90% of a replayed op");
  }
  report.notes.push_back(
      "tracing overhead: traced replays " + std::to_string(traced_s) +
      " s vs untraced replays " + std::to_string(untraced_s) +
      " s over the same " + std::to_string(ops) + " ops");
  const auto stem = options.work_dir / ("trace-" + workload.name() + "-seed" +
                                        std::to_string(options.seed));
  tracer.write(stem);
  report.notes.push_back("trace written to " + stem.string() +
                         ".json (Chrome trace events) and .csv");
  return report;
}

}  // namespace perfbench
