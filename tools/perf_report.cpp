/// \file perf_report.cpp
/// \brief Measures the hot simulation kernels against their frozen
///        pre-optimization baselines and emits BENCH_perf.json.
///
/// Usage:
///   tool_perf_report [--smoke] [output.json]
///
/// Each kernel is timed best-of-N in this process, baseline and
/// optimized back to back, so the reported speedups are insensitive to
/// machine drift. --smoke runs one repetition of everything (the CI
/// sanity gate); the default repetition counts are sized for a stable
/// committed baseline. The JSON schema ("wi-bench-perf-v1") is described
/// in the README's Performance section.

#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "baseline_kernels.hpp"
#include "wi/comm/filter_design.hpp"
#include "wi/comm/info_rate.hpp"
#include "wi/common/rng.hpp"
#include "wi/core/phy_abstraction.hpp"
#include "wi/fec/bp_decoder.hpp"
#include "wi/fec/ldpc_code.hpp"
#include "wi/fec/window_decoder.hpp"
#include "wi/noc/flit_sim.hpp"
#include "wi/noc/mesh_grid.hpp"
#include "wi/noc/queueing_model.hpp"
#include "wi/sim/sim.hpp"

namespace {

double now_ns() {
  return std::chrono::duration<double, std::nano>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Process-lifetime peak resident set in kB (Linux ru_maxrss unit).
/// The counter never decreases, so each entry's value is the peak up to
/// the moment its timed runs finished — ordering memory-light kernels
/// before their memory-hungry dense twins makes the contrast visible.
double max_rss_kb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss);
}

/// Best-of-reps wall time of one call, in nanoseconds.
double time_ns(const std::function<void()>& fn, int reps) {
  double best = 0.0;
  for (int i = 0; i < reps; ++i) {
    const double t0 = now_ns();
    fn();
    const double dt = now_ns() - t0;
    if (i == 0 || dt < best) best = dt;
  }
  return best;
}

/// Best-of-reps wall times of a baseline and an optimized call, timed
/// alternately so slow drift of the machine hits both sides alike.
std::pair<double, double> time_pair_ns(const std::function<void()>& base,
                                       const std::function<void()>& opt,
                                       int reps) {
  double best_base = 0.0;
  double best_opt = 0.0;
  for (int i = 0; i < reps; ++i) {
    const double b = time_ns(base, 1);
    const double o = time_ns(opt, 1);
    if (i == 0 || b < best_base) best_base = b;
    if (i == 0 || o < best_opt) best_opt = o;
  }
  return {best_base, best_opt};
}

struct Entry {
  std::string name;
  double ns_per_op = 0.0;
  double baseline_ns_per_op = 0.0;  ///< 0 = no baseline twin
  double throughput = 0.0;          ///< 0 = not meaningful
  std::string throughput_unit;
  double rss_kb = 0.0;  ///< peak RSS when the entry finished timing
  /// Second in-process baseline: the code the kernel replaced most
  /// recently (0 = none). Informational; the trend gate reads only
  /// `speedup`.
  double legacy_ns_per_op = 0.0;
};

/// push_back + max-RSS stamp: every entry records the process peak RSS
/// observed once its timed runs completed.
void push_entry(std::vector<Entry>& entries, Entry entry) {
  entry.rss_kb = max_rss_kb();
  entries.push_back(std::move(entry));
}

std::string json_escape_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.1f", v);
  return buf;
}

void write_json(const std::vector<Entry>& entries, const std::string& path) {
  std::ofstream out(path);
  out << "{\n"
      << "  \"schema\": \"wi-bench-perf-v1\",\n"
      << "  \"note\": \"best-of-N wall times; baseline = frozen "
         "pre-optimization kernel measured in the same process\",\n"
      << "  \"benchmarks\": [\n";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const Entry& e = entries[i];
    out << "    {\n"
        << "      \"name\": \"" << e.name << "\",\n"
        << "      \"ns_per_op\": " << json_escape_number(e.ns_per_op);
    if (e.baseline_ns_per_op > 0.0) {
      char speedup[32];
      std::snprintf(speedup, sizeof(speedup), "%.2f",
                    e.baseline_ns_per_op / e.ns_per_op);
      out << ",\n      \"baseline_ns_per_op\": "
          << json_escape_number(e.baseline_ns_per_op)
          << ",\n      \"speedup\": " << speedup;
    }
    if (e.legacy_ns_per_op > 0.0) {
      char speedup[32];
      std::snprintf(speedup, sizeof(speedup), "%.2f",
                    e.legacy_ns_per_op / e.ns_per_op);
      out << ",\n      \"legacy_ns_per_op\": "
          << json_escape_number(e.legacy_ns_per_op)
          << ",\n      \"speedup_vs_legacy\": " << speedup;
    }
    if (e.throughput > 0.0) {
      char thr[32];
      std::snprintf(thr, sizeof(thr), "%.2f", e.throughput);
      out << ",\n      \"throughput\": " << thr
          << ",\n      \"throughput_unit\": \"" << e.throughput_unit << "\"";
    }
    if (e.rss_kb > 0.0) {
      out << ",\n      \"max_rss_kb\": " << json_escape_number(e.rss_kb);
    }
    out << "\n    }" << (i + 1 < entries.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_perf.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      out_path = argv[i];
    }
  }
  const int reps_fast = smoke ? 1 : 7;    // sub-ms kernels
  const int reps_slow = smoke ? 1 : 5;    // >100 ms kernels
  std::vector<Entry> entries;

  const wi::comm::Constellation ask4 = wi::comm::Constellation::ask(4);

  // --- info_rate_one_bit_sequence (paper settings: 4-ASK, M=5, 20000) ---
  {
    const wi::comm::OneBitOsChannel channel(wi::comm::paper_filter_sequence(),
                                            ask4, 25.0);
    wi::comm::SequenceRateOptions options;
    options.symbols = 20000;
    options.seed = 7;
    volatile double sink = 0.0;
    const double base = time_ns(
        [&] {
          sink = wi::perf_baseline::info_rate_one_bit_sequence(channel,
                                                               options);
        },
        reps_fast);
    // Warm the noise tape before timing the steady-state path (the cold
    // first call is reported separately below).
    sink = wi::comm::info_rate_one_bit_sequence(channel, options);
    const double opt = time_ns(
        [&] { sink = wi::comm::info_rate_one_bit_sequence(channel, options); },
        reps_fast);
    push_entry(entries, {"info_rate_one_bit_sequence/4ask_m5_20000sym", opt,
                       base, 20000.0 / opt * 1e3, "Msymbols/s"});
    // Cold-tape cost: fresh seed defeats the memoization.
    std::uint64_t seed = 90000;
    const double cold = time_ns(
        [&] {
          wi::comm::SequenceRateOptions cold_options = options;
          cold_options.seed = ++seed;
          sink = wi::comm::info_rate_one_bit_sequence(channel, cold_options);
        },
        reps_fast);
    push_entry(entries, {"info_rate_one_bit_sequence/cold_noise_tape", cold,
                       base, 20000.0 / cold * 1e3, "Msymbols/s"});
    (void)sink;
  }

  // --- mi_one_bit_symbolwise ---
  {
    const wi::comm::OneBitOsChannel channel(
        wi::comm::paper_filter_symbolwise(), ask4, 25.0);
    volatile double sink = 0.0;
    const double base = time_ns(
        [&] { sink = wi::perf_baseline::mi_one_bit_symbolwise(channel); },
        smoke ? 1 : 50);
    const double opt = time_ns(
        [&] { sink = wi::comm::mi_one_bit_symbolwise(channel); },
        smoke ? 1 : 50);
    push_entry(entries,
        {"mi_one_bit_symbolwise/4ask_m5", opt, base, 0.0, ""});
    (void)sink;
  }

  // --- simulate_network (Fig. 8a: 64-module meshes) ---
  // Two in-process baselines: the frozen pre-PR-2 simulator (`speedup`,
  // trend-gated) and the cycle-stepped loop the event core replaced
  // (`speedup_vs_legacy`), timed alternately with the event core, best
  // of 9: the two are within tens of percent of each other at these
  // loads, so drift between back-to-back blocks would swamp the ratio.
  {
    wi::noc::FlitSimConfig config;  // fig08a DES cross-check settings
    config.warmup_cycles = 2000;
    config.measure_cycles = 8000;
    config.seed = 1;
    const wi::noc::DimensionOrderRouting routing;
    struct Case {
      const char* name;
      wi::noc::Topology topo;
      double rate;
    };
    Case cases[] = {
        {"simulate_network/fig08a_mesh3d_4x4x4_rate0.3",
         wi::noc::Topology::mesh_3d(4, 4, 4), 0.3},
        {"simulate_network/fig08a_mesh2d_8x8_rate0.2",
         wi::noc::Topology::mesh_2d(8, 8), 0.2},
        // Low-load point: the event wheel only turns routers with
        // pending work, while the cycle-stepped baselines still visit
        // all 64 routers every cycle — this is where the event-driven
        // rearchitecture pays off by an order of magnitude.
        {"simulate_network/fig08a_mesh2d_8x8_rate0.02_lowload",
         wi::noc::Topology::mesh_2d(8, 8), 0.02},
    };
    for (const Case& c : cases) {
      const wi::noc::TrafficPattern traffic =
          wi::noc::TrafficPattern::uniform(64);
      volatile std::size_t sink = 0;
      const double base = time_ns(
          [&] {
            sink = wi::perf_baseline::simulate_network(c.topo, routing,
                                                       traffic, c.rate,
                                                       config)
                       .delivered;
          },
          reps_slow);
      const auto [legacy, opt] = time_pair_ns(
          [&] {
            sink = wi::perf_baseline::simulate_network_legacy(
                       c.topo, routing, traffic, c.rate, config, {})
                       .delivered;
          },
          [&] {
            sink = wi::noc::simulate_network(c.topo, routing, traffic,
                                             c.rate, config)
                       .delivered;
          },
          smoke ? 1 : 9);
      const double cycles = static_cast<double>(config.warmup_cycles +
                                                config.measure_cycles +
                                                config.drain_cycles);
      Entry entry{c.name, opt, base, cycles / opt * 1e3, "Mcycles/s"};
      entry.legacy_ns_per_op = legacy;
      push_entry(entries, std::move(entry));
      (void)sink;
    }
  }

  // --- PhyAbstraction SNR-curve build (17 sequence-rate grid points) ---
  {
    volatile double sink = 0.0;
    // Warm the shared noise tape first: both variants would otherwise
    // pay the one-off recording on their first build and the ratio
    // would measure the cache, not the grid parallelism.
    {
      const wi::core::PhyAbstraction warm(
          wi::core::PhyReceiver::kOneBitSequence, 25e9, 2, 1);
      sink = warm.info_rate_bpcu(25.0);
    }
    // Explicit 4 workers: threads=0 resolves to hardware_concurrency(),
    // which is 1 on some CI boxes and silently degenerates to the
    // serial loop — the bug this entry exists to catch. The serial
    // build is this entry's in-process baseline, so the JSON carries a
    // speedup field and the perf-trend gate pins the parallel path.
    // Both builds take tens of milliseconds and swing with the host,
    // so they are timed alternately, best of 9, like ldpc_decode/*.
    const auto [serial, parallel] = time_pair_ns(
        [&] {
          const wi::core::PhyAbstraction phy(
              wi::core::PhyReceiver::kOneBitSequence, 25e9, 2, 1);
          sink = phy.info_rate_bpcu(25.0);
        },
        [&] {
          const wi::core::PhyAbstraction phy(
              wi::core::PhyReceiver::kOneBitSequence, 25e9, 2, 4);
          sink = phy.info_rate_bpcu(25.0);
        },
        smoke ? 1 : 9);
    push_entry(entries,
        {"phy_abstraction_build/one_bit_sequence/serial", serial, 0.0, 0.0,
         ""});
    push_entry(entries,
        {"phy_abstraction_build/one_bit_sequence/parallel_4t", parallel,
         serial, 0.0, ""});
    (void)sink;
  }

  // --- implicit vs dense setup structures (16x16x16 mesh, 4096 nodes) ---
  // The implicit kernels run first so their entries record the process
  // peak RSS *before* the dense twins allocate the modules^2 matrix and
  // the routers^2 next-hop table — the max_rss_kb contrast between the
  // /implicit entries and their dense-baselined twins is the memory
  // story the 32x32x32 scenario depends on.
  {
    const wi::noc::Topology topo = wi::noc::Topology::mesh_3d(16, 16, 16);
    const std::size_t modules = topo.module_count();
    const std::size_t routers = topo.router_count();
    const wi::noc::DimensionOrderRouting routing;

    // Traffic pattern construction + one probability row read (the row
    // read keeps both sides' op big enough to time stably).
    volatile double dsink = 0.0;
    const double traffic_implicit = time_ns(
        [&] {
          const wi::noc::TrafficPattern p =
              wi::noc::TrafficPattern::implicit_uniform(modules);
          double sum = 0.0;
          for (std::size_t d = 0; d < modules; ++d) {
            sum += p.probability(0, d);
          }
          dsink = sum;
        },
        reps_fast);
    push_entry(entries, {"traffic_build/mesh3d_16x16x16/implicit",
                         traffic_implicit, 0.0, 0.0, ""});
    const double traffic_dense = time_ns(
        [&] {
          const wi::noc::TrafficPattern p =
              wi::noc::TrafficPattern::uniform(modules);
          double sum = 0.0;
          for (std::size_t d = 0; d < modules; ++d) {
            sum += p.probability(0, d);
          }
          dsink = sum;
        },
        reps_slow);
    push_entry(entries, {"traffic_build/mesh3d_16x16x16", traffic_implicit,
                         traffic_dense, 0.0, ""});

    // Routing structure build: MeshGrid coordinate analysis vs the
    // dense (router, dst) first-hop port table the simulator needs
    // when the mesh shape is not recognised.
    volatile std::size_t sink = 0;
    const double routing_implicit = time_ns(
        [&] {
          const auto grid = wi::noc::MeshGrid::analyze(topo);
          sink = grid ? grid->next_port(0, routers - 1) : 0;
        },
        reps_fast);
    push_entry(entries, {"routing_build/mesh3d_16x16x16/implicit",
                         routing_implicit, 0.0, 0.0, ""});
    const double routing_dense = time_ns(
        [&] {
          std::vector<std::uint8_t> table(routers * routers, 0xFF);
          for (std::size_t r = 0; r < routers; ++r) {
            const auto& out = topo.out_links(r);
            for (std::size_t dst = 0; dst < routers; ++dst) {
              if (dst == r) continue;
              const std::size_t link = routing.first_hop(topo, r, dst);
              for (std::size_t p = 0; p < out.size(); ++p) {
                if (out[p] == link) {
                  table[r * routers + dst] = static_cast<std::uint8_t>(p);
                  break;
                }
              }
            }
          }
          sink = table[routers];
        },
        smoke ? 1 : 3);
    push_entry(entries, {"routing_build/mesh3d_16x16x16", routing_implicit,
                         routing_dense, 0.0, ""});

    // Queueing-model setup: closed-form channel loads vs the dense
    // all-pairs route walk (8x8x8 keeps the dense twin affordable).
    const wi::noc::Topology q_topo = wi::noc::Topology::mesh_3d(8, 8, 8);
    const std::size_t q_modules = q_topo.module_count();
    const double queueing_implicit = time_ns(
        [&] {
          const wi::noc::QueueingModel model(
              q_topo, routing,
              wi::noc::TrafficPattern::implicit_uniform(q_modules));
          dsink = model.saturation_rate();
        },
        reps_fast);
    const double queueing_dense = time_ns(
        [&] {
          const wi::noc::QueueingModel model(
              q_topo, routing, wi::noc::TrafficPattern::uniform(q_modules));
          dsink = model.saturation_rate();
        },
        reps_slow);
    push_entry(entries, {"queueing_build/mesh3d_8x8x8", queueing_implicit,
                         queueing_dense, 0.0, ""});
    (void)sink;
    (void)dsink;
  }

  // --- end-to-end SimEngine scenario (Fig. 8a queueing-model table) ---
  {
    const wi::sim::ScenarioRegistry registry =
        wi::sim::ScenarioRegistry::paper();
    const wi::sim::ScenarioSpec spec = registry.get("fig08a_mesh2d_8x8");
    volatile std::size_t sink = 0;
    const double t = time_ns(
        [&] {
          wi::sim::SimEngine engine;
          sink = engine.run(spec).table.rows();
        },
        reps_fast);
    push_entry(entries, {"sim_engine/fig08a_mesh2d_8x8_noc_latency", t, 0.0,
                       0.0, ""});
    (void)sink;
  }

  // --- LDPC decoding (Fig. 10): one tanh per edge, caller-owned
  // workspace, against the decoders as they stood before. Per op: one
  // codeword, averaged over a fixed set drawn at the paper's operating
  // region (BPSK/AWGN, all-zero codeword). Last, so the entries above
  // run in the same process state as before these were added.
  {
    const auto draw = [](std::size_t n, double ebn0_db, double rate,
                         std::size_t count) {
      const double sigma =
          std::sqrt(1.0 / (2.0 * rate * std::pow(10.0, ebn0_db / 10.0)));
      wi::Rng rng(4242);
      std::vector<std::vector<double>> words(count, std::vector<double>(n));
      for (auto& llr : words) {
        for (double& v : llr) {
          v = 2.0 / (sigma * sigma) * (1.0 + sigma * rng.gaussian());
        }
      }
      return words;
    };
    const std::size_t codewords = smoke ? 2 : 16;
    const int reps_decode = smoke ? 1 : 9;
    volatile std::size_t sink = 0;

    const wi::fec::LdpcConvolutionalCode cc(
        wi::fec::EdgeSpreading::paper_example(), 40, 24, 40);
    const auto cc_words =
        draw(cc.codeword_length(), 3.5, cc.rate_asymptotic(), codewords);
    const wi::perf_baseline::WindowDecoder cc_frozen(cc, 6);
    const wi::fec::WindowDecoder cc_fast(cc, 6);
    wi::fec::WindowWorkspace cc_workspace;
    const auto [cc_base, cc_opt] = time_pair_ns(
        [&] {
          for (const auto& llr : cc_words) {
            sink = cc_frozen.decode(llr).bp_iterations;
          }
        },
        [&] {
          for (const auto& llr : cc_words) {
            sink = cc_fast.decode(llr, cc_workspace).bp_iterations;
          }
        },
        reps_decode);
    const double count = static_cast<double>(codewords);
    push_entry(entries,
               {"ldpc_decode/window_cc_n40_w6_l24_3.5db", cc_opt / count,
                cc_base / count,
                static_cast<double>(cc.codeword_length()) * count / cc_opt *
                    1e3,
                "Mbit/s"});

    const wi::fec::QcLdpcBlockCode bc(wi::fec::BaseMatrix({{4, 4}}), 200,
                                      200);
    const auto bc_words =
        draw(bc.block_length(), 3.5, bc.design_rate(), codewords);
    const wi::perf_baseline::BpDecoder bc_frozen(bc.parity_check());
    const wi::fec::BpDecoder bc_fast(bc.parity_check());
    wi::fec::BpWorkspace bc_workspace;
    const auto [bc_base, bc_opt] = time_pair_ns(
        [&] {
          for (const auto& llr : bc_words) {
            sink = bc_frozen.decode(llr).iterations;
          }
        },
        [&] {
          for (const auto& llr : bc_words) {
            sink = bc_fast.decode(llr, {}, nullptr, bc_workspace).iterations;
          }
        },
        reps_decode);
    push_entry(entries,
               {"ldpc_decode/bp_bc_n200_3.5db", bc_opt / count,
                bc_base / count,
                static_cast<double>(bc.block_length()) * count / bc_opt * 1e3,
                "Mbit/s"});
    (void)sink;
  }

  write_json(entries, out_path);
  std::cout << "wrote " << out_path << "\n";
  for (const Entry& e : entries) {
    std::printf("  %-50s %12.0f ns/op", e.name.c_str(), e.ns_per_op);
    if (e.baseline_ns_per_op > 0.0) {
      std::printf("  (baseline %12.0f, speedup %.2fx)", e.baseline_ns_per_op,
                  e.baseline_ns_per_op / e.ns_per_op);
    }
    if (e.legacy_ns_per_op > 0.0) {
      std::printf("  (legacy %12.0f, speedup %.2fx)", e.legacy_ns_per_op,
                  e.legacy_ns_per_op / e.ns_per_op);
    }
    std::printf("\n");
  }
  return 0;
}
