/// \file flit_sim.cpp
/// \brief "flit_sim" workload plugin: flit-level DES latency/throughput
///        curve (the stochastic counterpart of noc_latency).

#include "wi/sim/workloads/flit_sim.hpp"

#include "wi/noc/flit_sim.hpp"
#include "wi/sim/spec_codec.hpp"
#include "wi/sim/workload.hpp"

namespace wi::sim {
namespace {

class FlitSimRunner final : public WorkloadRunner {
 public:
  std::string name() const override { return "flit_sim"; }
  std::string payload_key() const override { return "flit"; }
  std::string description() const override {
    return "flit-level DES latency/throughput curve";
  }
  std::vector<std::string> headers() const override {
    return {"inj_rate", "latency_cycles", "throughput", "delivered",
            "injected", "stable"};
  }

  std::unique_ptr<WorkloadPayload> default_payload() const override {
    return std::make_unique<FlitSimSpec>();
  }

  Json payload_to_json(const ScenarioSpec& spec) const override {
    const auto& f = spec.payload<FlitSimSpec>();
    Json json = Json::object();
    json.set("injection_rates", number_list_json(f.injection_rates));
    json.set("warmup_cycles", Json(static_cast<double>(f.warmup_cycles)));
    json.set("measure_cycles", Json(static_cast<double>(f.measure_cycles)));
    json.set("drain_cycles", Json(static_cast<double>(f.drain_cycles)));
    json.set("buffer_depth", Json(static_cast<double>(f.buffer_depth)));
    json.set("seed", Json(static_cast<double>(f.seed)));
    return json;
  }

  void payload_from_json(const Json& json,
                         ScenarioSpec& spec) const override {
    auto& f = spec.payload<FlitSimSpec>();
    ObjectReader reader(json, "flit");
    reader.number_list("injection_rates", f.injection_rates);
    reader.size("warmup_cycles", f.warmup_cycles);
    reader.size("measure_cycles", f.measure_cycles);
    reader.size("drain_cycles", f.drain_cycles);
    reader.size("buffer_depth", f.buffer_depth);
    reader.u64("seed", f.seed);
    reader.finish();
  }

  Status validate(const ScenarioSpec& spec) const override {
    const Status noc = spec.noc.validate(spec.name);
    if (!noc.is_ok()) return noc;
    const Status delay = spec.noc.validate_des_delay(spec.name);
    if (!delay.is_ok()) return delay;
    const auto& flit = spec.payload<FlitSimSpec>();
    if (flit.measure_cycles < 1) {
      return {StatusCode::kInvalidSpec,
              spec.name + ": flit measure_cycles must be >= 1"};
    }
    if (flit.buffer_depth < 1) {
      return {StatusCode::kInvalidSpec,
              spec.name + ": flit buffer_depth must be >= 1"};
    }
    for (const double rate : flit.injection_rates) {
      if (rate < 0.0) {
        return {StatusCode::kInvalidSpec,
                spec.name + ": flit injection rates must be >= 0"};
      }
    }
    return Status::ok();
  }

  void apply_seed(ScenarioSpec& spec, std::uint64_t seed) const override {
    spec.payload<FlitSimSpec>().seed = seed;
  }

  Table run(const ScenarioSpec& spec, WorkloadEnv& env) const override {
    Table table(headers());
    const FlitSimSpec& flit = spec.payload<FlitSimSpec>();
    const noc::Topology topology = spec.noc.topology.build();
    const auto routing = spec.noc.build_routing();
    const noc::TrafficPattern traffic =
        spec.noc.build_traffic(topology.module_count());
    noc::FlitSimConfig config;
    config.warmup_cycles = flit.warmup_cycles;
    config.measure_cycles = flit.measure_cycles;
    config.drain_cycles = flit.drain_cycles;
    config.buffer_depth = flit.buffer_depth;
    config.router_delay_cycles = spec.noc.model.router_delay_cycles;
    config.seed = flit.seed;
    std::vector<double> rates = flit.injection_rates;
    if (rates.empty()) rates = {0.05, 0.1, 0.15, 0.2};
    // Every rate runs the same seed into its own slot, so the table is
    // the same at any thread count; a one-rate spec runs inline.
    std::vector<noc::FlitSimResult> results(rates.size());
    env.parallel_for(rates.size(), [&](std::size_t i) {
      results[i] =
          simulate_network(topology, *routing, traffic, rates[i], config);
    });
    for (std::size_t i = 0; i < rates.size(); ++i) {
      const noc::FlitSimResult& des = results[i];
      table.add_row(
          {Table::num(rates[i], 3), Table::num(des.mean_latency_cycles, 4),
           Table::num(des.delivered_per_cycle, 5),
           Table::num(static_cast<long long>(des.delivered)),
           Table::num(static_cast<long long>(des.injected)),
           des.stable ? "yes" : "no"});
    }
    env.note("topology: " + topology.name());
    env.note("DES window: " +
             Table::num(static_cast<long long>(flit.measure_cycles)) +
             " cycles after " +
             Table::num(static_cast<long long>(flit.warmup_cycles)) +
             " warmup, seed " + Table::num(static_cast<long long>(flit.seed)));
    return table;
  }
};

}  // namespace

WI_SIM_REGISTER_WORKLOAD(flit_sim, FlitSimRunner)

}  // namespace wi::sim
