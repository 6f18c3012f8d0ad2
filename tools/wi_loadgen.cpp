/// \file wi_loadgen.cpp
/// \brief Load generator / replay harness for the wi_serve daemon.
///
/// Two modes:
///
///   generate: a deterministic mixed request stream — duplicate-heavy
///   by-name scenarios, unique inline specs, and (optionally)
///   deliberately malformed frames — split across N concurrent client
///   connections, optionally in pipelined bursts:
///
///     wi_loadgen --port 7341 --count 1000 --clients 8
///     wi_loadgen --port-file p.txt --duplicate-fraction 0.7 --burst 16
///     wi_loadgen --count 500 --emit-trace trace.ndjson   # write, no send
///
///   replay: a committed trace file, one raw frame per line ('#'
///   comments and blank lines skipped). Each line is classified with
///   the *shared* protocol codec: lines that parse are expected to
///   succeed, lines that do not are expected to be answered with a
///   non-ok status (and the connection must survive them):
///
///     wi_loadgen --port-file p.txt --trace ci/serve_smoke_trace.ndjson
///
/// After the run the tool prints client-side latency percentiles (same
/// log10 histogram grid as the server) and error counts, then applies
/// its gates. Exit 0 = all gates passed; 1 = a gate failed; 2 = usage.
///
/// Gates:
///   --expect-success     fail on any transport error, any well-formed
///                        request answered non-ok (including
///                        backpressure), or any malformed frame
///                        answered ok
///   --min-hit-rate R     fetch server stats and require hit_rate
///                        (hot + inflight + cold over completed run
///                        requests) >= R
///   --shutdown           finish with a shutdown request; fail unless
///                        it is acknowledged ok (clean drain)
///   --expect-terminal    fail unless EVERY frame reached a terminal
///                        classification (success, explicit rejection,
///                        server-enforced deadline, caught malformed
///                        frame, or exhausted-retries transport error)
///                        — the chaos-mode liveness gate: no request
///                        may hang or vanish
///
/// Chaos mode (--chaos, built for a wi_serve running with --chaos-*
/// fault injection): one connection per request, client-side receive
/// timeouts, retries with exponential backoff + deterministic jitter
/// honoring the server's retry_after_ms hints, and a deterministic
/// slice of requests carrying tight deadlines the server may answer
/// with kDeadlineExceeded. Pair with --expect-terminal, as in this
/// one-line command:
///
///   wi_loadgen --port-file p.txt --chaos --count 400
///     --malformed-fraction 0.1 --expect-terminal --shutdown

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <mutex>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "wi/common/fault.hpp"
#include "wi/serve/client.hpp"
#include "wi/serve/metrics.hpp"
#include "wi/sim/scenario_json.hpp"

namespace {

using namespace wi;
using namespace wi::serve;

struct CliOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 7341;
  std::optional<std::filesystem::path> port_file;
  std::size_t count = 1000;
  std::size_t clients = 8;
  double duplicate_fraction = 0.6;
  double malformed_fraction = 0.0;
  std::size_t burst = 1;
  std::uint64_t seed = 42;
  std::optional<std::filesystem::path> trace;
  std::optional<std::filesystem::path> emit_trace;
  bool expect_success = false;
  std::optional<double> min_hit_rate;
  bool shutdown = false;
  bool print_stats = false;
  bool quiet = false;

  // Chaos mode.
  bool chaos = false;
  bool expect_terminal = false;
  double deadline_fraction = 0.3;  ///< share of requests with deadlines
  double deadline_ms = 250.0;      ///< deadline scale for that share
  double timeout_ms = 10000.0;     ///< per-attempt receive timeout
  std::size_t retries = 4;         ///< max attempts per request
};

void print_usage(std::ostream& os) {
  os << "usage: wi_loadgen [options]\n"
        "\n"
        "options:\n"
        "  --host HOST              server address (default 127.0.0.1)\n"
        "  --port N                 server port (default 7341)\n"
        "  --port-file PATH         read the port from PATH (wi_serve\n"
        "                           --port-file)\n"
        "  --count N                requests to generate (default 1000)\n"
        "  --clients N              concurrent connections (default 8)\n"
        "  --duplicate-fraction F   share drawn from a small by-name\n"
        "                           pool (default 0.6)\n"
        "  --malformed-fraction F   share of deliberately bad frames\n"
        "                           (default 0)\n"
        "  --burst N                frames pipelined per connection\n"
        "                           before reading responses (default 1)\n"
        "  --seed N                 mix RNG seed (default 42)\n"
        "  --trace PATH             replay PATH instead of generating\n"
        "  --emit-trace PATH        write the generated frames to PATH\n"
        "                           and exit without sending\n"
        "  --expect-success         gate: zero errors of any kind\n"
        "  --min-hit-rate R         gate: server hit_rate >= R\n"
        "  --shutdown               finish with a clean-drain shutdown\n"
        "  --stats                  print the server stats table\n"
        "  --chaos                  chaos mode: one connection per\n"
        "                           request, timeouts, retries with\n"
        "                           backoff+jitter, random deadlines\n"
        "  --expect-terminal        gate: every frame terminally\n"
        "                           resolved (chaos liveness)\n"
        "  --deadline-fraction F    chaos: share of requests with a\n"
        "                           deadline (default 0.3)\n"
        "  --deadline-ms MS         chaos: deadline scale (default 250)\n"
        "  --timeout-ms MS          chaos: per-attempt receive timeout\n"
        "                           (default 10000)\n"
        "  --retries N              chaos: max attempts per request\n"
        "                           (default 4)\n"
        "  --quiet                  only gate results\n"
        "  --help                   this text\n";
}

/// One frame to send plus what the shared codec says about it.
struct TraceItem {
  std::string line;
  bool well_formed = false;
};

/// Deterministic mixed request stream. Malformed frames rotate through
/// a fixed set of protocol violations; duplicates draw from a small
/// pool of cheap registered scenarios; unique requests are inline
/// link_budget_table specs whose name (and so content key) never
/// repeats.
[[nodiscard]] std::vector<TraceItem> generate_mix(const CliOptions& options) {
  static const char* kMalformed[] = {
      "this is not json",
      "{\"type\":\"no_such_type\"}",
      "{\"type\":\"run_scenario\"}",
      "{\"type\":\"run_scenario\",\"scenario\":\"table1_link_budget\","
      "\"bogus_key\":1}",
      "{\"type\":\"run_campaign\",\"scenario\":\"table1_link_budget\","
      "\"seeds\":0}",
      "[1,2,3]",
  };
  static const char* kDuplicatePool[] = {
      "table1_link_budget",
      "fig01_pathloss",
      "fig04_tx_power",
      "board_links_plan",
  };
  std::mt19937_64 rng(options.seed);
  std::uniform_real_distribution<double> uniform(0.0, 1.0);
  std::vector<TraceItem> items;
  items.reserve(options.count);
  for (std::size_t i = 0; i < options.count; ++i) {
    const double draw = uniform(rng);
    TraceItem item;
    if (draw < options.malformed_fraction) {
      item.line = kMalformed[i % std::size(kMalformed)];
      item.well_formed = false;
    } else if (draw < options.malformed_fraction +
                          options.duplicate_fraction) {
      Request request;
      request.type = RequestType::kRunScenario;
      request.id = "dup-" + std::to_string(i);
      request.scenario =
          kDuplicatePool[rng() % std::size(kDuplicatePool)];
      item.line = request_to_line(request);
      item.well_formed = true;
    } else {
      Request request;
      request.type = RequestType::kRunScenario;
      request.id = "uniq-" + std::to_string(i);
      sim::ScenarioSpec spec;
      spec.name = "loadgen_unique_" + std::to_string(i);
      spec.workload = "link_budget_table";
      spec.link.ptx_dbm = 5.0 + 0.01 * static_cast<double>(i % 1000);
      request.spec = std::move(spec);
      item.line = request_to_line(request);
      item.well_formed = true;
    }
    items.push_back(std::move(item));
  }
  return items;
}

[[nodiscard]] std::vector<TraceItem> load_trace(
    const std::filesystem::path& path) {
  std::ifstream in(path);
  if (!in) {
    throw StatusError(Status(StatusCode::kNotFound,
                             "cannot open trace file " + path.string()));
  }
  std::vector<TraceItem> items;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    TraceItem item;
    item.line = line;
    try {
      (void)request_from_line(line);
      item.well_formed = true;
    } catch (const StatusError&) {
      item.well_formed = false;
    }
    items.push_back(std::move(item));
  }
  return items;
}

/// Shared accounting across client threads.
struct Tally {
  std::mutex mutex;
  RunningStats latency_us;
  Histogram latency = ServerMetrics::make_latency_histogram();
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;              ///< well-formed answered ok
  std::uint64_t rejected = 0;        ///< well-formed answered non-ok
  std::uint64_t backpressure = 0;    ///< of which kUnavailable
  std::uint64_t deadline_exceeded = 0;  ///< server-enforced deadlines
  std::uint64_t malformed_caught = 0;  ///< malformed answered non-ok
  std::uint64_t malformed_missed = 0;  ///< malformed answered ok (bad!)
  std::uint64_t transport_errors = 0;
  std::uint64_t retries = 0;         ///< chaos: extra attempts made
  std::uint64_t tier_hot = 0;
  std::uint64_t tier_inflight = 0;
  std::uint64_t tier_cold = 0;
  std::uint64_t tier_run = 0;
};

void record_response(Tally& tally, const TraceItem& item,
                     const Response& response, double latency_us) {
  std::lock_guard<std::mutex> lock(tally.mutex);
  ++tally.sent;
  tally.latency_us.add(latency_us);
  ServerMetrics::add_latency(tally.latency, latency_us);
  if (item.well_formed) {
    if (response.ok()) {
      ++tally.ok;
    } else if (response.status.code() ==
               StatusCode::kDeadlineExceeded) {
      // A terminal verdict the request asked for, not a failure.
      ++tally.deadline_exceeded;
    } else {
      ++tally.rejected;
      if (response.status.code() == StatusCode::kUnavailable) {
        ++tally.backpressure;
      }
    }
  } else {
    if (response.ok()) {
      ++tally.malformed_missed;
    } else {
      ++tally.malformed_caught;
    }
  }
  if (response.tier == "hot") ++tally.tier_hot;
  if (response.tier == "inflight") ++tally.tier_inflight;
  if (response.tier == "cold") ++tally.tier_cold;
  if (response.tier == "run") ++tally.tier_run;
}

void client_worker(const CliOptions& options,
                   const std::vector<TraceItem>& items, std::size_t client,
                   Tally& tally) {
  Client connection;
  if (Status status = connection.connect(options.host, options.port);
      !status.is_ok()) {
    std::lock_guard<std::mutex> lock(tally.mutex);
    // Every frame this client owned becomes a transport error.
    for (std::size_t i = client; i < items.size();
         i += options.clients) {
      ++tally.sent;
      ++tally.transport_errors;
    }
    return;
  }
  using Clock = std::chrono::steady_clock;
  std::vector<std::size_t> mine;
  for (std::size_t i = client; i < items.size(); i += options.clients) {
    mine.push_back(i);
  }
  const std::size_t burst = options.burst == 0 ? 1 : options.burst;
  for (std::size_t begin = 0; begin < mine.size(); begin += burst) {
    const std::size_t end = std::min(begin + burst, mine.size());
    const auto t0 = Clock::now();
    bool write_failed = false;
    for (std::size_t j = begin; j < end; ++j) {
      if (!connection.send_raw(items[mine[j]].line).is_ok()) {
        write_failed = true;
        break;
      }
    }
    for (std::size_t j = begin; j < end; ++j) {
      if (write_failed) {
        std::lock_guard<std::mutex> lock(tally.mutex);
        ++tally.sent;
        ++tally.transport_errors;
        continue;
      }
      try {
        const Response response = connection.receive();
        const double latency_us =
            std::chrono::duration<double, std::micro>(Clock::now() - t0)
                .count();
        record_response(tally, items[mine[j]], response, latency_us);
      } catch (const StatusError&) {
        std::lock_guard<std::mutex> lock(tally.mutex);
        ++tally.sent;
        ++tally.transport_errors;
        write_failed = true;  // connection is gone; drain the rest
      }
    }
    if (write_failed) break;
  }
  connection.close();
}

/// Chaos-mode client: one connection per request, receive timeouts,
/// retries with backoff/jitter, and a deterministic slice of requests
/// carrying tight deadlines. Every frame ends in exactly one terminal
/// bucket — ok, rejected, deadline_exceeded, malformed_caught/missed,
/// or transport_errors — which is what --expect-terminal audits.
void chaos_worker(const CliOptions& options,
                  const std::vector<TraceItem>& items, std::size_t client,
                  Tally& tally) {
  using Clock = std::chrono::steady_clock;
  for (std::size_t i = client; i < items.size(); i += options.clients) {
    const TraceItem& item = items[i];
    const auto t0 = Clock::now();
    const auto latency_us = [&] {
      return std::chrono::duration<double, std::micro>(Clock::now() -
                                                       t0)
          .count();
    };
    if (!item.well_formed) {
      // Malformed frames ride a throwaway connection, no retries: the
      // server must answer them non-ok and survive.
      try {
        Client connection;
        if (Status status =
                connection.connect(options.host, options.port);
            !status.is_ok()) {
          throw StatusError(status);
        }
        if (Status status = connection.set_timeout(options.timeout_ms);
            !status.is_ok()) {
          throw StatusError(status);
        }
        const Response response = connection.call_raw(item.line);
        connection.close();
        record_response(tally, item, response, latency_us());
      } catch (const StatusError&) {
        std::lock_guard<std::mutex> lock(tally.mutex);
        ++tally.sent;
        ++tally.transport_errors;
      }
      continue;
    }
    Request request;
    try {
      request = request_from_line(item.line);
    } catch (const StatusError&) {
      // load_trace/generate_mix said well-formed; disagreeing here
      // would be a codec bug — classify terminally anyway.
      std::lock_guard<std::mutex> lock(tally.mutex);
      ++tally.sent;
      ++tally.transport_errors;
      continue;
    }
    // Deterministic chaos shaping: request i either runs unbounded or
    // carries a deadline in [0.25, 1) * deadline_ms — tight enough
    // that a queue behind injected stalls will expire some of them.
    const std::uint64_t shape =
        fault::derive(options.seed, fault::Stream::kChaosShape, i);
    if ((request.type == RequestType::kRunScenario ||
         request.type == RequestType::kRunCampaign) &&
        fault::unit_interval(shape) < options.deadline_fraction) {
      request.deadline_ms =
          options.deadline_ms *
          (0.25 + 0.75 * fault::unit_interval(fault::splitmix64(shape)));
    }
    RetryOptions retry;
    retry.max_attempts = options.retries == 0 ? 1 : options.retries;
    retry.initial_backoff_ms = 5.0;
    retry.timeout_ms = options.timeout_ms;
    retry.seed = options.seed;
    RetryStats attempts;
    try {
      const Response response = call_with_retry(
          options.host, options.port, request, retry, &attempts);
      record_response(tally, item, response, latency_us());
      std::lock_guard<std::mutex> lock(tally.mutex);
      tally.retries += attempts.attempts - 1;
    } catch (const StatusError&) {
      // Retries exhausted (or a non-retryable transport error): the
      // terminal classification is "transport error", never a hang.
      std::lock_guard<std::mutex> lock(tally.mutex);
      ++tally.sent;
      ++tally.transport_errors;
      tally.retries += attempts.attempts - 1;
    }
  }
}

[[nodiscard]] bool parse_size(const std::string& text, std::size_t& out) {
  try {
    out = static_cast<std::size_t>(std::stoull(text));
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

[[nodiscard]] bool parse_double(const std::string& text, double& out) {
  try {
    out = std::stod(text);
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

[[nodiscard]] int parse_cli(int argc, char** argv, CliOptions& options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--help" || arg == "-h") {
      print_usage(std::cout);
      return -1;
    }
    if (arg == "--expect-success") {
      options.expect_success = true;
      continue;
    }
    if (arg == "--chaos") {
      options.chaos = true;
      continue;
    }
    if (arg == "--expect-terminal") {
      options.expect_terminal = true;
      continue;
    }
    if (arg == "--shutdown") {
      options.shutdown = true;
      continue;
    }
    if (arg == "--stats") {
      options.print_stats = true;
      continue;
    }
    if (arg == "--quiet") {
      options.quiet = true;
      continue;
    }
    const char* value = nullptr;
    if (arg == "--host" && (value = next())) {
      options.host = value;
    } else if (arg == "--port" && (value = next())) {
      std::size_t port = 0;
      if (!parse_size(value, port) || port > 65535) return 2;
      options.port = static_cast<std::uint16_t>(port);
    } else if (arg == "--port-file" && (value = next())) {
      options.port_file = value;
    } else if (arg == "--count" && (value = next())) {
      if (!parse_size(value, options.count)) return 2;
    } else if (arg == "--clients" && (value = next())) {
      if (!parse_size(value, options.clients) || options.clients == 0) {
        return 2;
      }
    } else if (arg == "--duplicate-fraction" && (value = next())) {
      if (!parse_double(value, options.duplicate_fraction)) return 2;
    } else if (arg == "--malformed-fraction" && (value = next())) {
      if (!parse_double(value, options.malformed_fraction)) return 2;
    } else if (arg == "--burst" && (value = next())) {
      if (!parse_size(value, options.burst)) return 2;
    } else if (arg == "--seed" && (value = next())) {
      std::size_t seed = 0;
      if (!parse_size(value, seed)) return 2;
      options.seed = seed;
    } else if (arg == "--trace" && (value = next())) {
      options.trace = value;
    } else if (arg == "--emit-trace" && (value = next())) {
      options.emit_trace = value;
    } else if (arg == "--min-hit-rate" && (value = next())) {
      double rate = 0.0;
      if (!parse_double(value, rate)) return 2;
      options.min_hit_rate = rate;
    } else if (arg == "--deadline-fraction" && (value = next())) {
      if (!parse_double(value, options.deadline_fraction)) return 2;
    } else if (arg == "--deadline-ms" && (value = next())) {
      if (!parse_double(value, options.deadline_ms)) return 2;
    } else if (arg == "--timeout-ms" && (value = next())) {
      if (!parse_double(value, options.timeout_ms)) return 2;
    } else if (arg == "--retries" && (value = next())) {
      if (!parse_size(value, options.retries)) return 2;
    } else {
      std::cerr << "wi_loadgen: unknown or incomplete option '" << arg
                << "'\n";
      print_usage(std::cerr);
      return 2;
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions options;
  if (const int rc = parse_cli(argc, argv, options); rc != 0) {
    return rc < 0 ? 0 : rc;
  }
  try {
    if (options.port_file) {
      std::ifstream in(*options.port_file);
      std::size_t port = 0;
      if (!(in >> port) || port == 0 || port > 65535) {
        std::cerr << "wi_loadgen: cannot read a port from "
                  << *options.port_file << "\n";
        return 2;
      }
      options.port = static_cast<std::uint16_t>(port);
    }

    const std::vector<TraceItem> items =
        options.trace ? load_trace(*options.trace)
                      : generate_mix(options);
    if (options.emit_trace) {
      std::ofstream out(*options.emit_trace, std::ios::trunc);
      out << "# wi_loadgen trace: " << items.size()
          << " frames (one request per line; lines that do not parse "
             "are deliberate)\n";
      for (const TraceItem& item : items) out << item.line << "\n";
      if (!out) {
        std::cerr << "wi_loadgen: cannot write trace to "
                  << *options.emit_trace << "\n";
        return 1;
      }
      std::cout << "wi_loadgen: wrote " << items.size() << " frames to "
                << options.emit_trace->string() << "\n";
      return 0;
    }

    Tally tally;
    {
      std::vector<std::thread> threads;
      threads.reserve(options.clients);
      for (std::size_t c = 0; c < options.clients; ++c) {
        threads.emplace_back(options.chaos ? chaos_worker
                                           : client_worker,
                             std::cref(options), std::cref(items), c,
                             std::ref(tally));
      }
      for (std::thread& thread : threads) thread.join();
    }

    // Client-side report.
    const std::uint64_t well_formed_expected =
        static_cast<std::uint64_t>(std::count_if(
            items.begin(), items.end(),
            [](const TraceItem& item) { return item.well_formed; }));
    if (!options.quiet) {
      Table report({"metric", "value"});
      const auto row = [&](const std::string& name, double v,
                           int decimals = 0) {
        report.add_row({name, Table::num(v, decimals)});
      };
      row("frames", static_cast<double>(items.size()));
      row("sent", static_cast<double>(tally.sent));
      row("ok", static_cast<double>(tally.ok));
      row("rejected", static_cast<double>(tally.rejected));
      row("backpressure", static_cast<double>(tally.backpressure));
      row("deadline_exceeded",
          static_cast<double>(tally.deadline_exceeded));
      row("malformed_caught",
          static_cast<double>(tally.malformed_caught));
      row("malformed_missed",
          static_cast<double>(tally.malformed_missed));
      row("transport_errors",
          static_cast<double>(tally.transport_errors));
      row("retries", static_cast<double>(tally.retries));
      row("tier_hot", static_cast<double>(tally.tier_hot));
      row("tier_inflight", static_cast<double>(tally.tier_inflight));
      row("tier_cold", static_cast<double>(tally.tier_cold));
      row("tier_run", static_cast<double>(tally.tier_run));
      row("latency_us_mean", tally.latency_us.count() > 0
                                 ? tally.latency_us.mean()
                                 : 0.0,
          1);
      row("latency_us_p50",
          ServerMetrics::latency_quantile_us(tally.latency, 0.50), 1);
      row("latency_us_p90",
          ServerMetrics::latency_quantile_us(tally.latency, 0.90), 1);
      row("latency_us_p99",
          ServerMetrics::latency_quantile_us(tally.latency, 0.99), 1);
      std::cout << "client-side results (" << options.clients
                << " clients):\n";
      report.print(std::cout);
    }

    bool failed = false;
    const auto gate = [&](bool ok, const std::string& what) {
      if (ok) {
        if (!options.quiet) std::cout << "gate ok: " << what << "\n";
      } else {
        std::cout << "GATE FAILED: " << what << "\n";
        failed = true;
      }
    };

    if (options.expect_success) {
      gate(tally.transport_errors == 0, "no transport errors (" +
                                            std::to_string(
                                                tally.transport_errors) +
                                            ")");
      gate(tally.ok == well_formed_expected,
           "every well-formed request succeeded (" +
               std::to_string(tally.ok) + "/" +
               std::to_string(well_formed_expected) + ")");
      gate(tally.malformed_missed == 0,
           "no malformed frame was accepted");
    }

    if (options.expect_terminal) {
      // The liveness audit: nothing hung (all worker threads joined,
      // so reaching here already rules out a wedge) and nothing
      // vanished — every frame landed in exactly one terminal bucket.
      const std::uint64_t terminal =
          tally.ok + tally.rejected + tally.deadline_exceeded +
          tally.malformed_caught + tally.malformed_missed +
          tally.transport_errors;
      gate(tally.sent == items.size(),
           "every frame was attempted (" + std::to_string(tally.sent) +
               "/" + std::to_string(items.size()) + ")");
      gate(terminal == tally.sent,
           "every request terminally resolved (" +
               std::to_string(terminal) + "/" +
               std::to_string(tally.sent) + ")");
      gate(tally.ok > 0,
           "some requests still succeeded under chaos (" +
               std::to_string(tally.ok) + ")");
    }

    // Control-plane requests in chaos mode go through the retry layer
    // too: an injected connection drop must not fail the harness.
    RetryOptions control_retry;
    control_retry.max_attempts = options.chaos ? 8 : 1;
    control_retry.timeout_ms = options.chaos ? options.timeout_ms : 0.0;
    control_retry.seed = options.seed;

    if (options.min_hit_rate || options.print_stats) {
      Request stats;
      stats.type = RequestType::kStats;
      stats.id = "loadgen-stats";
      const Response response = call_with_retry(
          options.host, options.port, stats, control_retry);
      if (!response.ok() || !response.result.has_value()) {
        gate(false, "stats request answered ok");
      } else {
        if (options.print_stats) {
          std::cout << "\nserver stats:\n";
          response.result->table.print(std::cout);
        }
        if (options.min_hit_rate) {
          const double hit_rate =
              metrics_table_value(response.result->table, "hit_rate");
          std::ostringstream label;
          label << "server hit_rate " << hit_rate
                << " >= " << *options.min_hit_rate;
          gate(hit_rate >= *options.min_hit_rate, label.str());
        }
      }
    }

    if (options.shutdown) {
      Request request;
      request.type = RequestType::kShutdown;
      request.id = "loadgen-shutdown";
      const Response response = call_with_retry(
          options.host, options.port, request, control_retry);
      gate(response.ok() && response.status.message() == "drained",
           "shutdown acknowledged with a clean drain");
    }

    return failed ? 1 : 0;
  } catch (const StatusError& error) {
    std::cerr << "wi_loadgen: " << error.status().to_string() << "\n";
    return 1;
  } catch (const std::exception& error) {
    std::cerr << "wi_loadgen: " << error.what() << "\n";
    return 1;
  }
}
