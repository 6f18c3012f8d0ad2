/// \file serve_mix.cpp
/// \brief The wi_serve mix: a closed-loop batch, then open loop at two
///        fixed offered rates, against an in-process wi::serve::Server.
///
/// Requests: duplicates over a working set three times the hot tier
/// (hot hits and cold-store reads), unique inline specs of cheap
/// scenarios (engine runs and store writes), and a malformed slice
/// whose rejection is expected. The closed batch is one client sending
/// mostly unique flit DES specs, so its timings are the server's
/// engine-bound work rather than thread wake-ups. Every well-formed
/// response is checked against the digest of the same spec run on a
/// local engine, and the working set's digests against the committed
/// reference.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <map>
#include <memory>
#include <thread>

#include <unistd.h>

#include "util.hpp"
#include "wi/serve/client.hpp"
#include "wi/serve/server.hpp"
#include "wi/sim/engine.hpp"
#include "wi/sim/result_store.hpp"
#include "wi/sim/scenario_json.hpp"
#include "wi/sim/workloads/flit_sim.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using wi::sim::ScenarioSpec;

constexpr std::size_t kHotCapacity = 64;
constexpr std::size_t kWorkingSet = 3 * kHotCapacity;
constexpr double kMalformedShare = 0.04;
/// Unique specs among the open-loop requests, and among the closed
/// batch's (which are all short flit DES specs).
constexpr double kOpenUniqueShare = 0.26;
constexpr double kClosedUniqueShare = 0.70;
constexpr double kLowRate = 300.0;    ///< requests per second
constexpr double kHighRate = 1200.0;  ///< just below the knee
/// Server workers and generator connections: half the hardware threads,
/// so the server's connection threads and the generator's own threads
/// have cores too and the mix is not measuring oversubscription.
std::size_t serve_parallelism() {
  return std::max<std::size_t>(1, hardware_threads() / 2);
}

/// A failed or refused request counts as this latency: past any p99
/// limit the mix could meet.
constexpr double kFailedLatencyMs = 1000.0;

enum class Phase { kClosed, kLow, kHigh };
const char* phase_name(Phase phase) {
  switch (phase) {
    case Phase::kClosed: return "closed";
    case Phase::kLow: return "low";
    case Phase::kHigh: return "high";
  }
  return "?";
}

/// The run's steps, in order.
const Phase kSchedule[] = {Phase::kClosed, Phase::kLow, Phase::kHigh};

/// Requests per phase for a run of `seconds`; each open-loop phase keeps
/// at least 1000 samples so its p99 has ten beyond it.
std::size_t phase_requests(Phase phase, double seconds) {
  const auto scaled = [&](double per_second) {
    return static_cast<std::size_t>(std::ceil(per_second * seconds));
  };
  switch (phase) {
    case Phase::kClosed: return std::max<std::size_t>(200, scaled(45.0));
    case Phase::kLow: return std::max<std::size_t>(1000, scaled(60.0));
    case Phase::kHigh: return std::max<std::size_t>(1000, scaled(120.0));
  }
  return 0;
}

/// A short flit DES on the 4x4 mesh at rate 0.05 + 0.25 * load: its
/// cost grows smoothly with the load.
ScenarioSpec small_flit_spec(double load, std::uint64_t des_seed) {
  ScenarioSpec spec;
  spec.name = "perfbench_serve";
  spec.workload = "flit_sim";
  spec.noc.topology.kind = wi::sim::TopologySpec::Kind::kMesh2d;
  spec.noc.topology.kx = 4;
  spec.noc.topology.ky = 4;
  auto& flit = spec.payload<wi::sim::FlitSimSpec>();
  flit.injection_rates = {0.05 + 0.25 * load};
  flit.warmup_cycles = 500;
  flit.measure_cycles = 2000;
  flit.drain_cycles = 4000;
  flit.seed = des_seed;
  return spec;
}

/// A closed-batch request: the short 4x4 flit DES over four times the
/// cycles, so that engine work, not the wake-ups around it, sets its
/// latency.
ScenarioSpec closed_flit_spec(double load, std::uint64_t des_seed) {
  ScenarioSpec spec = small_flit_spec(load, des_seed);
  auto& flit = spec.payload<wi::sim::FlitSimSpec>();
  flit.measure_cycles *= 4;
  flit.drain_cycles *= 4;
  return spec;
}

/// Cheap scenario number `index` of the seed: analytic noc_latency on a
/// 64-router Fig. 8(a) network, a short 4x4 flit DES (every other spec),
/// or the link budget table with perturbed Table I parameters.
ScenarioSpec cheap_spec(std::uint64_t seed, std::size_t index) {
  using Kind = wi::sim::TopologySpec::Kind;
  const double u = unit(seed, 100000 + index);
  const double v = unit(seed, 200000 + index);
  if (index % 2 == 1) {
    return small_flit_spec(u, mix(seed, 400000 + index) >> 11);
  }
  ScenarioSpec spec;
  spec.name = "perfbench_serve";
  if (index % 4 == 0) {
    spec.workload = "noc_latency";
    auto& topology = spec.noc.topology;
    const std::size_t net = mix(seed, 300000 + index) % 3;
    topology.kind = net == 0 ? Kind::kMesh2d
                             : (net == 1 ? Kind::kMesh3d : Kind::kStarMesh);
    topology.kx = net == 0 ? 8 : 4;
    topology.ky = net == 0 ? 8 : 4;
    topology.kz = net == 1 ? 4 : 1;
    topology.concentration = net == 2 ? 4 : 1;
    spec.noc.injection_rates.clear();
    for (int k = 1; k <= 6; ++k) {
      spec.noc.injection_rates.push_back(0.02 * k + 0.02 * u);
    }
  } else {
    spec.workload = "link_budget_table";
    spec.link.budget.rx_noise_figure_db = 6.0 + 8.0 * u;
    spec.link.budget.path_loss_exponent = 1.8 + 0.6 * v;
  }
  return spec;
}

struct Planned {
  Phase phase = Phase::kClosed;
  std::size_t step = 0;  ///< index into kSchedule
  bool malformed = false;
  std::size_t spec_index = 0;  ///< into the distinct-spec list
  std::string line;            ///< the frame sent
};

/// Deterministic request plan: distinct specs (working set first, then
/// the unique specs in order of use) and every request of every phase.
struct Plan {
  std::vector<ScenarioSpec> specs;
  std::vector<Planned> requests;
};

Plan make_plan(std::uint64_t seed, double seconds) {
  Plan plan;
  for (std::size_t d = 0; d < kWorkingSet; ++d) {
    plan.specs.push_back(cheap_spec(seed, d));
  }
  static const char* kMalformed[] = {
      R"({"type":"run_scenario","id":"m","spec":{"name":"x","no_such_key":1}})",
      R"({"type":"run_scenario","id":"m","spec":)",
      R"({"type":"no_such_type","id":"m"})",
      R"({"type":"run_scenario","id":"m","scenario":"a","spec":{"name":"b"}})",
  };
  std::size_t next_unique = kWorkingSet;
  std::size_t next_closed = 0;
  const double closed_offset = unit(seed, 800000);
  std::size_t j = 0;
  for (std::size_t step = 0; step < std::size(kSchedule); ++step) {
    const Phase phase = kSchedule[step];
    const double unique_share =
        phase == Phase::kClosed ? kClosedUniqueShare : kOpenUniqueShare;
    const std::size_t n = phase_requests(phase, seconds);
    for (std::size_t k = 0; k < n; ++k, ++j) {
      Planned p;
      p.phase = phase;
      p.step = step;
      const double u = unit(seed, 500000 + j);
      if (u < kMalformedShare) {
        p.malformed = true;
        p.line = kMalformed[mix(seed, 600000 + j) % 4];
      } else if (u < kMalformedShare + unique_share) {
        p.spec_index = plan.specs.size();
        if (phase == Phase::kClosed) {
          // Low-discrepancy loads: every seed's batch costs the same.
          plan.specs.push_back(closed_flit_spec(
              golden_sequence(closed_offset, next_closed),
              mix(seed, 900000 + next_closed) >> 11));
          ++next_closed;
        } else {
          plan.specs.push_back(cheap_spec(seed, next_unique++));
        }
      } else {
        // Skewed popularity: P(index < x) = sqrt(x / working set).
        const double v = unit(seed, 700000 + j);
        p.spec_index = std::min(kWorkingSet - 1,
                                static_cast<std::size_t>(
                                    v * v * static_cast<double>(kWorkingSet)));
      }
      if (!p.malformed) {
        wi::serve::Request request;
        request.type = wi::serve::RequestType::kRunScenario;
        request.id = std::to_string(j);
        request.spec = plan.specs[p.spec_index];
        p.line = wi::serve::request_to_line(request);
      }
      plan.requests.push_back(std::move(p));
    }
  }
  return plan;
}

struct Outcome {
  double latency_ms = 0.0;
  double lag_ms = 0.0;  ///< generator lateness (open loop)
  bool transport_ok = false;
  wi::StatusCode code = wi::StatusCode::kOk;
  std::string tier;
  std::string digest;
};

/// One server plus its client connections: the set-up of the mix.
struct Rig {
  std::filesystem::path store_dir;
  std::unique_ptr<wi::serve::Server> server;
  std::vector<wi::serve::Client> clients;

  void start(const std::filesystem::path& dir, std::size_t connections) {
    store_dir = dir;
    std::filesystem::remove_all(store_dir);
    wi::serve::ServerOptions options;
    options.workers = connections;
    options.hot_capacity = kHotCapacity;
    options.store_dir = store_dir;
    options.version = "perfbench";
    server = std::make_unique<wi::serve::Server>(options);
    const wi::Status started = server->start();
    if (!started.is_ok()) throw wi::StatusError(started);
    clients.resize(connections);
    for (auto& client : clients) {
      const wi::Status connected = client.connect("127.0.0.1", server->port());
      if (!connected.is_ok()) throw wi::StatusError(connected);
    }
  }

  void stop() {
    for (auto& client : clients) client.close();
    clients.clear();
    if (server) server->stop();
    server.reset();
    std::filesystem::remove_all(store_dir);
  }
};

Outcome send(wi::serve::Client& client, const Planned& p) {
  Outcome out;
  try {
    const wi::serve::Response response = client.call_raw(p.line);
    out.transport_ok = true;
    out.code = response.status.code();
    out.tier = response.tier;
    if (response.ok() && response.result) {
      out.digest = table_digest(response.result->table);
    }
  } catch (const std::exception&) {
    out.transport_ok = false;
  }
  return out;
}

/// Run one step. Open loop, over all connections: request k of the
/// phase is due at k / rate, latency counts from the due time, and lag
/// is how late an idle connection sent it. Closed loop: back to back
/// over one connection. With two, both streams' cross-thread wake-ups
/// stalled whenever the host stole CPU time, and the batch's wall time
/// rose by up to 70% while its CPU time rose by 15%.
double run_step(Rig& rig, const Plan& plan, std::size_t step,
                std::vector<Outcome>& outcomes, Tracer* tracer) {
  const Phase phase = kSchedule[step];
  const double rate = phase == Phase::kLow ? kLowRate : kHighRate;
  std::vector<std::size_t> members;
  for (std::size_t j = 0; j < plan.requests.size(); ++j) {
    if (plan.requests[j].step == step) members.push_back(j);
  }
  const std::size_t connections =
      phase == Phase::kClosed ? 1 : rig.clients.size();
  const double start = wall_s();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      double idle_since = start;
      for (std::size_t k = c; k < members.size(); k += connections) {
        const std::size_t j = members[k];
        double due = wall_s();
        double lag = 0.0;
        if (phase != Phase::kClosed) {
          due = start + static_cast<double>(k) / rate;
          const double now = wall_s();
          if (due > now) {
            std::this_thread::sleep_for(std::chrono::duration<double>(due - now));
          }
          lag = wall_s() - std::max(due, idle_since);
        }
        Outcome out;
        if (tracer != nullptr) {
          const auto span = tracer->span(
              std::string("serve.request.") + phase_name(phase),
              static_cast<int>(j));
          out = send(rig.clients[c], plan.requests[j]);
        } else {
          out = send(rig.clients[c], plan.requests[j]);
        }
        idle_since = wall_s();
        out.latency_ms = (idle_since - due) * 1e3;
        out.lag_ms = std::max(0.0, lag) * 1e3;
        outcomes[j] = std::move(out);
      }
    });
  }
  for (auto& t : threads) t.join();
  return wall_s() - start;
}

}  // namespace

std::vector<ScenarioSpec> reference_specs(const std::string& workload,
                                          std::uint64_t seed, double seconds) {
  if (workload == "serve_mix") {
    // The working set; unique specs are checked against a local engine.
    std::vector<ScenarioSpec> specs;
    for (std::size_t d = 0; d < kWorkingSet; ++d) {
      specs.push_back(cheap_spec(seed, d));
    }
    return specs;
  }
  const auto batch = make_batch_workload(workload);
  std::vector<ScenarioSpec> specs;
  for (std::size_t i = 0; i < batch->ops_for(seconds); ++i) {
    specs.push_back(batch->make_op(seed, i));
  }
  return specs;
}

RunReport run_serve_mix(const RunOptions& options) {
  RunReport report;
  const std::size_t connections = serve_parallelism();
  const auto store_dir =
      options.work_dir / ("serve-store-" + std::to_string(getpid()));

  // Set-up: request generation through the codecs, server construction
  // and start (ready when start() returns), client connections.
  const Plan plan = make_plan(options.seed, options.seconds);
  Rig rig;
  rig.start(store_dir, connections);
  const double setup_s = wall_s() - options.spawn_s;
  if (options.setup_only) {
    rig.stop();
    report.metrics["setup_s"] = setup_s;
    return report;
  }

  Tracer tracer;
  Tracer* trace = options.trace ? &tracer : nullptr;
  std::vector<Outcome> outcomes(plan.requests.size());
  const double canary_start = canary_ms();
  double closed_s = 0.0;
  double cpu = 0.0;
  for (std::size_t step = 0; step < std::size(kSchedule); ++step) {
    const double cpu0 = cpu_s();
    const double wall = run_step(rig, plan, step, outcomes, trace);
    if (kSchedule[step] == Phase::kClosed) {
      closed_s += wall;
      cpu += cpu_s() - cpu0;
    }
  }
  const double canary_end = canary_ms();

  wi::Table stats;
  {
    wi::serve::Request request;
    request.type = wi::serve::RequestType::kStats;
    request.id = "stats";
    const wi::serve::Response response = rig.clients.front().call(request);
    if (!response.ok() || !response.result) {
      throw wi::StatusError(response.status);
    }
    stats = response.result->table;
  }
  rig.stop();

  // Reference digests: every distinct well-formed spec that was sent,
  // run on a local engine pool after the timed steps.
  const References refs(options.refs_dir, "serve_mix", options.seed);
  std::vector<bool> used(plan.specs.size(), false);
  for (const Planned& p : plan.requests) {
    if (!p.malformed) used[p.spec_index] = true;
  }
  std::vector<std::size_t> used_index;
  std::vector<ScenarioSpec> used_specs;
  for (std::size_t i = 0; i < plan.specs.size(); ++i) {
    if (!used[i]) continue;
    used_index.push_back(i);
    used_specs.push_back(plan.specs[i]);
  }
  wi::sim::SimEngine engine;
  std::vector<wi::sim::RunResult> local_results =
      engine.run_all(used_specs, hardware_threads());
  std::vector<std::string> local(plan.specs.size());
  std::vector<bool> off_reference(plan.specs.size(), false);
  std::size_t unreferenced = 0;
  for (std::size_t k = 0; k < used_index.size(); ++k) {
    const std::size_t i = used_index[k];
    const wi::sim::RunResult& r = local_results[k];
    local[i] = r.ok() ? table_digest(r.table) : "";
    if (i < kWorkingSet) {
      if (const auto ref = refs.at(i)) {
        off_reference[i] = *ref != local[i];
      } else {
        ++unreferenced;
      }
    }
  }

  // Per-request checks.
  std::map<Phase, std::vector<double>> latency;
  std::map<std::string, std::vector<double>> by_tier;
  std::vector<double> lags;
  std::vector<double> closed_ms;
  std::size_t malformed = 0;
  for (std::size_t j = 0; j < plan.requests.size(); ++j) {
    const Planned& p = plan.requests[j];
    const Outcome& o = outcomes[j];
    bool ok = o.transport_ok;
    if (p.malformed) {
      ++malformed;
      ok = ok && o.code == wi::StatusCode::kParseError;
    } else {
      ok = ok && o.code == wi::StatusCode::kOk && !local[p.spec_index].empty() &&
           o.digest == local[p.spec_index] && !off_reference[p.spec_index];
    }
    ++report.attempted;
    if (!ok) ++report.failed;
    if (p.malformed) continue;
    const double ms = ok ? o.latency_ms : kFailedLatencyMs;
    latency[p.phase].push_back(ms);
    if (p.phase == Phase::kClosed) {
      closed_ms.push_back(ms);
    } else {
      lags.push_back(o.lag_ms);
      if (ok) by_tier[o.tier].push_back(ms);
    }
  }
  const auto off = std::count(off_reference.begin(), off_reference.end(), true);
  if (off > 0) {
    report.notes.push_back(std::to_string(off) +
                           " working-set specs differ from the committed "
                           "reference; their requests count as failed");
  }
  if (unreferenced > 0) {
    report.notes.push_back(
        "no committed reference digest for " + std::to_string(unreferenced) +
        " working-set specs (seed " + std::to_string(options.seed) +
        "): responses were checked against a local engine run only");
  }
  const auto stat = [&](const char* name) {
    return wi::serve::metrics_table_value(stats, name);
  };
  const double low_p50 = quantile(latency[Phase::kLow], 0.5);
  const double low_p99 = quantile(latency[Phase::kLow], 0.99);
  const double high_p50 = quantile(latency[Phase::kHigh], 0.5);
  const double high_p99 = quantile(latency[Phase::kHigh], 0.99);
  const double lag_p99 = quantile(lags, 0.99);
  report.notes.push_back("host.canary_ms start " + std::to_string(canary_start) +
                         " end " + std::to_string(canary_end));
  report.notes.push_back(
      "closed batch: " + std::to_string(closed_ms.size()) +
      " requests over one connection; open loop over " +
      std::to_string(connections) + " connections; low " +
      std::to_string(static_cast<int>(kLowRate)) + "/s: p50 " +
      std::to_string(low_p50) + " ms, p99 " + std::to_string(low_p99) +
      " ms over " + std::to_string(latency[Phase::kLow].size()) +
      "; high " + std::to_string(static_cast<int>(kHighRate)) + "/s: p50 " +
      std::to_string(high_p50) + " ms, p99 " + std::to_string(high_p99) +
      " ms over " + std::to_string(latency[Phase::kHigh].size()) +
      "; generator lag p99 " + std::to_string(lag_p99) + " ms; " +
      std::to_string(malformed) + " malformed requests rejected as expected");
  report.notes.push_back("hit rate " + std::to_string(stat("hit_rate")) +
                         ", engine runs " + std::to_string(stat("engine_runs")) +
                         ", cold hits " + std::to_string(stat("cold_hits")));

  const double error_rate = static_cast<double>(report.failed) /
                            static_cast<double>(report.attempted);
  if (!options.trace) {
    report.metrics["setup_s"] = setup_s;
    report.metrics["run_s"] = closed_s;
    report.metrics["cpu_s"] = cpu;
    report.metrics["op_p50_ms"] = quantile(closed_ms, 0.5);
    report.metrics["op_p90_ms"] = quantile(closed_ms, 0.9);
    report.metrics["peak_rss_mb"] = peak_rss_mb();
    report.metrics["success_rate"] = 1.0 - error_rate;
    return report;
  }

  // Traced extras: the codec, key, result and store layers timed from
  // here on the mix's own frames, specs and results.
  std::map<std::string, double>& m = report.metrics;
  for (const std::string& name : per_layer_metric_names()) m[name] = 0.0;
  for (const Planned& p : plan.requests) {
    if (p.malformed) continue;
    const auto span = tracer.span("serve.parse");
    (void)wi::serve::request_from_line(p.line);
  }
  for (std::size_t i = 0; i < plan.specs.size(); ++i) {
    if (!used[i]) continue;
    const std::string text = wi::sim::scenario_to_string(plan.specs[i]);
    ScenarioSpec decoded;
    {
      const auto span = tracer.span("sim.spec_decode");
      decoded = wi::sim::scenario_from_string(text);
    }
    const auto span = tracer.span("sim.content_key");
    (void)wi::sim::result_content_key(decoded, "perfbench", 0);
  }
  {
    const auto probe_dir = options.work_dir / "serve-store-probe";
    std::filesystem::remove_all(probe_dir);
    wi::sim::ResultStoreOptions store_options;
    store_options.directory = probe_dir;
    store_options.version = "perfbench";
    wi::sim::ResultStore store(store_options);
    for (std::size_t k = 0; k < used_index.size(); ++k) {
      const std::size_t i = used_index[k];
      const wi::sim::RunResult& r = local_results[k];
      if (!r.ok()) continue;
      {
        const auto span = tracer.span("sim.result_json");
        (void)wi::sim::run_result_to_json(r).dump();
      }
      {
        const auto span = tracer.span("sim.store_save");
        store.save(plan.specs[i], r);
      }
      std::optional<wi::sim::RunResult> loaded;
      {
        const auto span = tracer.span("sim.store_load");
        loaded = store.load(plan.specs[i]);
      }
      if (report.correct &&
          (!loaded || table_digest(loaded->table) != local[i])) {
        report.correct = false;
        report.notes.push_back("a store round trip changed a result");
      }
    }
    std::filesystem::remove_all(probe_dir);
  }
  // Span cost, for the tracing-overhead estimate of the request spans.
  double span_cost_s = 0.0;
  {
    Tracer scratch;
    const double t0 = wall_s();
    for (int i = 0; i < 10000; ++i) (void)scratch.span("x");
    span_cost_s = (wall_s() - t0) / 10000.0;
  }

  const auto spans = tracer.totals();
  const auto mean = [&](const char* name) {
    const auto it = spans.find(name);
    return it == spans.end() ? 0.0 : it->second.mean_ms();
  };
  m["sim.spec_decode_us"] = mean("sim.spec_decode") * 1e3;
  m["sim.content_key_us"] = mean("sim.content_key") * 1e3;
  m["sim.result_json_us"] = mean("sim.result_json") * 1e3;
  m["sim.store_save_ms"] = mean("sim.store_save");
  m["sim.store_load_ms"] = mean("sim.store_load");
  m["serve.hot_p50_ms"] = quantile(by_tier["hot"], 0.5);
  m["serve.cold_p50_ms"] = quantile(by_tier["cold"], 0.5);
  m["serve.run_p50_ms"] = quantile(by_tier["run"], 0.5);
  m["serve.hit_rate"] = stat("hit_rate");
  m["serve.queue_wait_us_mean"] = stat("queue_wait_us_mean");
  m["serve.run_us_mean"] = stat("run_us_mean");
  m["serve.backpressure_rejects"] = stat("backpressure_rejects");
  m["serve.parse_us"] = mean("serve.parse") * 1e3;
  m["serve.gen_lag_ms"] = lag_p99;
  m["serve.low.p50_ms"] = low_p50;
  m["serve.low.p99_ms"] = low_p99;
  m["serve.high.p50_ms"] = high_p50;
  m["serve.high.p99_ms"] = high_p99;
  m["host.canary_ms"] = 0.5 * (canary_start + canary_end);
  m["trace.overhead_s"] =
      span_cost_s * static_cast<double>(plan.requests.size());
  report.notes.push_back(
      "tracing overhead: estimated from the measured span cost (" +
      std::to_string(span_cost_s * 1e9) +
      " ns) times the request spans; span coverage and the engine's "
      "self time are not measured on serve_mix and report 0");
  const auto stem = options.work_dir /
                    ("trace-serve_mix-seed" + std::to_string(options.seed));
  tracer.write(stem);
  report.notes.push_back("trace written to " + stem.string() +
                         ".json (Chrome trace events) and .csv");
  return report;
}

}  // namespace perfbench
