/// \file main.cpp
/// \brief perfbench: one workload, one seed, one process.
///
///   wi_perfbench --workload NAME --seed N --seconds S --trace 0|1
///                --refs DIR --work-dir DIR
///                [--spawn-time T] [--setup-only]
///   wi_perfbench --emit-digests --workload NAME --seed N --seconds S
///
/// The last stdout line is the result object
/// {"correct", "attempted", "failed", "metrics"}; lines before it start
/// with '#'. --spawn-time is the CLOCK_MONOTONIC time [s] at which the
/// caller spawned this process (default: entry to main); setup_s runs
/// from it. --setup-only stops once the first op is ready and prints
/// setup_s alone. --emit-digests prints the reference digests of one
/// seed (one line, concatenated 8-hex-digit digests) for refs
/// regeneration.

#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>

#include "util.hpp"
#include "wi/common/json.hpp"
#include "wi/sim/engine.hpp"
#include "workload.hpp"

namespace perfbench {

References::References(const std::filesystem::path& dir,
                       const std::string& workload, std::uint64_t seed) {
  std::ifstream in(dir / (workload + ".json"));
  if (!in) return;
  std::stringstream text;
  text << in.rdbuf();
  const wi::Json root = wi::Json::parse(text.str());
  const wi::Json* entry = root.at("seeds").find(std::to_string(seed));
  if (entry == nullptr) return;
  const std::string& packed = entry->as_string();
  for (std::size_t i = 0; i + 8 <= packed.size(); i += 8) {
    digests_.push_back(packed.substr(i, 8));
  }
}

std::optional<std::string> References::at(std::size_t index) const {
  if (index >= digests_.size()) return std::nullopt;
  return digests_[index];
}

namespace {

struct Metric {
  const char* name;
  const char* unit;
};

const std::vector<Metric>& per_layer_metrics() {
  static const std::vector<Metric> kMetrics = {
      {"fec.code_build_ms", "ms"},
      {"fec.ber_point_ms", "ms"},
      {"fec.ber_points", "count"},
      {"fec.codewords", "count"},
      {"fec.decode_us_per_codeword", "us"},
      {"fec.bp_iterations_per_codeword", "count"},
      {"fec.unconverged_ratio", "ratio"},
      {"sim.engine_run_ms", "ms"},
      {"sim.engine_self_ms", "ms"},
      {"sim.spec_decode_us", "us"},
      {"sim.content_key_us", "us"},
      {"sim.result_json_us", "us"},
      {"sim.store_save_ms", "ms"},
      {"sim.store_load_ms", "ms"},
      {"noc.topology_build_ms", "ms"},
      {"noc.routing_build_ms", "ms"},
      {"noc.traffic_build_ms", "ms"},
      {"noc.build_rss_mb", "MB"},
      {"noc.simulate_ms", "ms"},
      {"noc.turns", "count"},
      {"noc.delivered", "count"},
      {"noc.ns_per_turn", "ns"},
      {"noc.turns_per_delivered", "count"},
      {"serve.hot_p50_ms", "ms"},
      {"serve.cold_p50_ms", "ms"},
      {"serve.run_p50_ms", "ms"},
      {"serve.hit_rate", "ratio"},
      {"serve.queue_wait_us_mean", "us"},
      {"serve.run_us_mean", "us"},
      {"serve.backpressure_rejects", "count"},
      {"serve.parse_us", "us"},
      {"serve.gen_lag_ms", "ms"},
      {"serve.low.p50_ms", "ms"},
      {"serve.low.p99_ms", "ms"},
      {"serve.high.p50_ms", "ms"},
      {"serve.high.p99_ms", "ms"},
      {"host.canary_ms", "ms"},
      {"trace.overhead_s", "s"},
      {"trace.span_coverage", "ratio"},
  };
  return kMetrics;
}

}  // namespace

const std::vector<std::string>& per_layer_metric_names() {
  static const std::vector<std::string> kNames = [] {
    std::vector<std::string> names;
    for (const auto& m : per_layer_metrics()) names.emplace_back(m.name);
    return names;
  }();
  return kNames;
}

namespace {

const std::vector<Metric>& end_to_end_metrics() {
  static const std::vector<Metric> kMetrics = {
      {"setup_s", "s"},         {"run_s", "s"},
      {"cpu_s", "s"},           {"op_p50_ms", "ms"},
      {"op_p90_ms", "ms"},      {"peak_rss_mb", "MB"},
      {"success_rate", "ratio"},
  };
  return kMetrics;
}

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "wi_perfbench: " << problem
            << "\nusage: wi_perfbench --workload ldpc|noc_small|serve_mix"
               " --seed N --seconds S --trace 0|1 --refs DIR "
               "--work-dir DIR [--spawn-time T] [--setup-only] "
               "[--emit-digests]\n";
  std::exit(2);
}

RunReport run(const RunOptions& options) {
  if (options.workload == "serve_mix") return run_serve_mix(options);
  return run_batch(*make_batch_workload(options.workload), options);
}

void print_result(const RunOptions& options, const RunReport& report) {
  for (const std::string& note : report.notes) {
    std::cout << "# " << note << '\n';
  }
  wi::Json metrics = wi::Json::object();
  const auto add = [&](const std::string& name, const std::string& unit) {
    const auto it = report.metrics.find(name);
    wi::Json metric = wi::Json::object();
    metric.set("value", wi::Json(it == report.metrics.end() ? 0.0 : it->second));
    metric.set("unit", wi::Json(unit));
    metrics.set(name, std::move(metric));
  };
  if (options.trace) {
    for (const Metric& m : per_layer_metrics()) add(m.name, m.unit);
  } else {
    for (const Metric& m : end_to_end_metrics()) add(m.name, m.unit);
  }
  wi::Json result = wi::Json::object();
  result.set("correct", wi::Json(report.correct && report.failed == 0));
  result.set("attempted",
             wi::Json(static_cast<unsigned long long>(report.attempted)));
  result.set("failed", wi::Json(static_cast<unsigned long long>(report.failed)));
  result.set("metrics", std::move(metrics));
  std::cout << result.dump() << std::endl;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions options;
  options.spawn_s = wall_s();
  bool emit_digests = false;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = value();
    } else if (arg == "--seed") {
      options.seed = std::stoull(value());
      have_seed = true;
    } else if (arg == "--seconds") {
      options.seconds = std::stod(value());
    } else if (arg == "--trace") {
      options.trace = value() == "1";
    } else if (arg == "--refs") {
      options.refs_dir = value();
    } else if (arg == "--work-dir") {
      options.work_dir = value();
    } else if (arg == "--spawn-time") {
      options.spawn_s = std::stod(value());
    } else if (arg == "--setup-only") {
      options.setup_only = true;
    } else if (arg == "--emit-digests") {
      emit_digests = true;
    } else {
      usage("unknown argument " + arg);
    }
  }
  if (options.workload != "serve_mix" &&
      make_batch_workload(options.workload) == nullptr) {
    usage("unknown workload");
  }
  if (!have_seed) usage("--seed is required");
  if (!(options.seconds > 0.0)) usage("--seconds must be > 0");
  try {
    if (emit_digests) {
      wi::sim::SimEngine engine;
      for (const auto& spec :
           reference_specs(options.workload, options.seed, options.seconds)) {
        const wi::sim::RunResult r = engine.run(spec);
        if (!r.ok()) {
          std::cerr << "reference op failed: " << r.status.to_string() << '\n';
          return 1;
        }
        std::cout << table_digest(r.table);
      }
      std::cout << std::endl;
      return 0;
    }
    if (options.work_dir.empty()) usage("--work-dir is required");
    std::filesystem::create_directories(options.work_dir);
    const RunReport report = run(options);
    if (options.setup_only) {
      std::cout << std::setprecision(17) << report.metrics.at("setup_s")
                << std::endl;
      return 0;
    }
    print_result(options, report);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "wi_perfbench: " << e.what() << '\n';
    return 1;
  }
}
