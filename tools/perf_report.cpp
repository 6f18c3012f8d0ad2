/// \file perf_report.cpp
/// \brief Measures the hot simulation kernels against their frozen
///        pre-optimization baselines and emits BENCH_perf.json.
///
/// Usage:
///   tool_perf_report [--smoke] [output.json]
///
/// Each kernel is timed best-of-N, baseline and optimized alternately
/// round by round (time_pair_ns), so slow drift of the machine hits both
/// sides alike and the reported speedups are insensitive to it. Every
/// entry runs in its own forked child of a small parent, so its
/// max_rss_kb is its own high-water mark. --smoke runs one repetition
/// of everything (the CI sanity gate); the default repetition counts are
/// sized for a stable committed baseline. The JSON schema
/// ("wi-bench-perf-v1") is described in the README's Performance
/// section.

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
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
#include "wi/common/json.hpp"
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

using wi::Json;

double now_ns() {
  return std::chrono::duration<double, std::nano>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Process-lifetime peak resident set in kB (Linux ru_maxrss unit). A
/// forked child starts from its parent's peak, so the parent stays
/// small and each entry runs in a child of its own (run_isolated).
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
/// alternately so slow drift of the machine hits both sides alike. Each
/// round times one baseline call, then the best of `opt_calls`
/// optimized calls: a microsecond kernel that follows a 100 ms baseline
/// runs its first call on cold caches, and its later calls show its
/// steady state.
std::pair<double, double> time_pair_ns(const std::function<void()>& base,
                                       const std::function<void()>& opt,
                                       int reps, int opt_calls = 1) {
  double best_base = 0.0;
  double best_opt = 0.0;
  for (int i = 0; i < reps; ++i) {
    const double b = time_ns(base, 1);
    const double o = time_ns(opt, opt_calls);
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

/// push_back + max-RSS stamp: every entry records the peak RSS of the
/// child it ran in, once its timed runs completed.
void push_entry(std::vector<Entry>& entries, Entry entry) {
  entry.rss_kb = max_rss_kb();
  entries.push_back(std::move(entry));
}

/// v rounded to `decimals` places (dividing by the power of ten keeps
/// the shortest decimal form, e.g. 1.88, not 1.8800000000000001).
double round_to(double v, int decimals) {
  const double scale = std::pow(10.0, decimals);
  return std::round(v * scale) / scale;
}

Json entry_to_json(const Entry& e) {
  Json json = Json::object();
  json.set("name", Json(e.name));
  json.set("ns_per_op", Json(round_to(e.ns_per_op, 1)));
  if (e.baseline_ns_per_op > 0.0) {
    json.set("baseline_ns_per_op", Json(round_to(e.baseline_ns_per_op, 1)));
    json.set("speedup",
             Json(round_to(e.baseline_ns_per_op / e.ns_per_op, 2)));
  }
  if (e.legacy_ns_per_op > 0.0) {
    json.set("legacy_ns_per_op", Json(round_to(e.legacy_ns_per_op, 1)));
    json.set("speedup_vs_legacy",
             Json(round_to(e.legacy_ns_per_op / e.ns_per_op, 2)));
  }
  if (e.throughput > 0.0) {
    json.set("throughput", Json(round_to(e.throughput, 2)));
    json.set("throughput_unit", Json(e.throughput_unit));
  }
  if (e.rss_kb > 0.0) json.set("max_rss_kb", Json(round_to(e.rss_kb, 1)));
  return json;
}

/// Runs `block` in a forked child and returns the report JSON of the
/// entries it pushed, shipped back through a pipe. Exits the report when
/// the child fails.
Json::Array run_isolated(
    const std::function<void(std::vector<Entry>&)>& block) {
  int fds[2];
  if (pipe(fds) != 0) {
    std::perror("perf_report: pipe");
    std::exit(1);
  }
  std::cout.flush();
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("perf_report: fork");
    std::exit(1);
  }
  if (pid == 0) {
    close(fds[0]);
    std::vector<Entry> entries;
    block(entries);
    Json out = Json::array();
    for (const Entry& e : entries) out.push_back(entry_to_json(e));
    const std::string text = out.dump();
    std::size_t done = 0;
    while (done < text.size()) {
      const ssize_t n = write(fds[1], text.data() + done, text.size() - done);
      if (n <= 0) _exit(1);
      done += static_cast<std::size_t>(n);
    }
    close(fds[1]);
    _exit(0);
  }
  close(fds[1]);
  std::string text;
  char buffer[4096];
  for (ssize_t n; (n = read(fds[0], buffer, sizeof(buffer))) > 0;) {
    text.append(buffer, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    std::cerr << "perf_report: a measurement child failed (status " << status
              << ")\n";
    std::exit(1);
  }
  return Json::parse(text).as_array();
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
  const int reps_pair = smoke ? 1 : 9;    // rounds of time_pair_ns
  Json benchmarks = Json::array();
  const auto isolated =
      [&](const std::function<void(std::vector<Entry>&)>& block) {
        for (Json& e : run_isolated(block)) benchmarks.push_back(std::move(e));
      };

  // --- info_rate_one_bit_sequence (paper settings: 4-ASK, M=5, 20000) ---
  const wi::comm::Constellation ask4 = wi::comm::Constellation::ask(4);
  const auto one_bit_channel = [&] {
    return wi::comm::OneBitOsChannel(wi::comm::paper_filter_sequence(), ask4,
                                     25.0);
  };
  wi::comm::SequenceRateOptions sequence_options;
  sequence_options.symbols = 20000;
  sequence_options.seed = 7;
  isolated([&](std::vector<Entry>& out) {
    const wi::comm::OneBitOsChannel channel = one_bit_channel();
    volatile double sink = 0.0;
    // Warm the noise tape before timing the steady-state path (the cold
    // first call is the next entry).
    sink = wi::comm::info_rate_one_bit_sequence(channel, sequence_options);
    const auto [base, opt] = time_pair_ns(
        [&] {
          sink = wi::perf_baseline::info_rate_one_bit_sequence(
              channel, sequence_options);
        },
        [&] {
          sink =
              wi::comm::info_rate_one_bit_sequence(channel, sequence_options);
        },
        reps_pair, reps_fast);
    push_entry(out, {"info_rate_one_bit_sequence/4ask_m5_20000sym", opt, base,
                     20000.0 / opt * 1e3, "Msymbols/s"});
    (void)sink;
  });
  isolated([&](std::vector<Entry>& out) {
    const wi::comm::OneBitOsChannel channel = one_bit_channel();
    volatile double sink = 0.0;
    // Cold-tape cost: fresh seed defeats the memoization.
    std::uint64_t seed = 90000;
    const auto [cold_base, cold] = time_pair_ns(
        [&] {
          sink = wi::perf_baseline::info_rate_one_bit_sequence(
              channel, sequence_options);
        },
        [&] {
          wi::comm::SequenceRateOptions cold_options = sequence_options;
          cold_options.seed = ++seed;
          sink = wi::comm::info_rate_one_bit_sequence(channel, cold_options);
        },
        reps_pair);
    push_entry(out, {"info_rate_one_bit_sequence/cold_noise_tape", cold,
                     cold_base, 20000.0 / cold * 1e3, "Msymbols/s"});
    (void)sink;
  });
  // --- mi_one_bit_symbolwise ---
  isolated([&](std::vector<Entry>& out) {
    const wi::comm::OneBitOsChannel channel(
        wi::comm::paper_filter_symbolwise(), ask4, 25.0);
    volatile double sink = 0.0;
    const double base = time_ns(
        [&] { sink = wi::perf_baseline::mi_one_bit_symbolwise(channel); },
        smoke ? 1 : 50);
    const double opt = time_ns(
        [&] { sink = wi::comm::mi_one_bit_symbolwise(channel); },
        smoke ? 1 : 50);
    push_entry(out, {"mi_one_bit_symbolwise/4ask_m5", opt, base, 0.0, ""});
    (void)sink;
  });

  // --- simulate_network (Fig. 8a: 64-module meshes) ---
  // Two in-process baselines: the frozen pre-PR-2 simulator (`speedup`,
  // trend-gated) and the cycle-stepped loop the event core replaced
  // (`speedup_vs_legacy`), timed alternately with the event core, best
  // of 9: the two are within tens of percent of each other at these
  // loads, so drift between back-to-back blocks would swamp the ratio.
  {
    struct Case {
      const char* name;
      wi::noc::Topology (*topology)();
      double rate;
    };
    const Case cases[] = {
        {"simulate_network/fig08a_mesh3d_4x4x4_rate0.3",
         [] { return wi::noc::Topology::mesh_3d(4, 4, 4); }, 0.3},
        {"simulate_network/fig08a_mesh2d_8x8_rate0.2",
         [] { return wi::noc::Topology::mesh_2d(8, 8); }, 0.2},
        // Low-load point: the event wheel only turns routers with
        // pending work, while the cycle-stepped baselines still visit
        // all 64 routers every cycle — this is where the event-driven
        // rearchitecture pays off by an order of magnitude.
        {"simulate_network/fig08a_mesh2d_8x8_rate0.02_lowload",
         [] { return wi::noc::Topology::mesh_2d(8, 8); }, 0.02},
    };
    for (const Case& c : cases) {
      isolated([&](std::vector<Entry>& out) {
        wi::noc::FlitSimConfig config;  // fig08a DES cross-check settings
        config.warmup_cycles = 2000;
        config.measure_cycles = 8000;
        config.seed = 1;
        const wi::noc::DimensionOrderRouting routing;
        const wi::noc::Topology topo = c.topology();
        const wi::noc::TrafficPattern traffic =
            wi::noc::TrafficPattern::uniform(64);
        volatile std::size_t sink = 0;
        const double base = time_ns(
            [&] {
              sink = wi::perf_baseline::simulate_network(topo, routing,
                                                         traffic, c.rate,
                                                         config)
                         .delivered;
            },
            reps_slow);
        const auto [legacy, opt] = time_pair_ns(
            [&] {
              sink = wi::perf_baseline::simulate_network_legacy(
                         topo, routing, traffic, c.rate, config, {})
                         .delivered;
            },
            [&] {
              sink = wi::noc::simulate_network(topo, routing, traffic,
                                               c.rate, config)
                         .delivered;
            },
            reps_pair);
        const double cycles = static_cast<double>(config.warmup_cycles +
                                                  config.measure_cycles +
                                                  config.drain_cycles);
        Entry entry{c.name, opt, base, cycles / opt * 1e3, "Mcycles/s"};
        entry.legacy_ns_per_op = legacy;
        push_entry(out, std::move(entry));
        (void)sink;
      });
    }
  }

  // --- PhyAbstraction SNR-curve build (17 sequence-rate grid points) ---
  isolated([&](std::vector<Entry>& out) {
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
        reps_pair);
    push_entry(out, {"phy_abstraction_build/one_bit_sequence/serial", serial,
                     0.0, 0.0, ""});
    push_entry(out, {"phy_abstraction_build/one_bit_sequence/parallel_4t",
                     parallel, serial, 0.0, ""});
    (void)sink;
  });

  // --- implicit vs dense setup structures (16x16x16 mesh, 4096 nodes) ---
  // Each entry runs in its own child, so the /implicit entries'
  // max_rss_kb never includes the modules^2 matrix or the routers^2
  // next-hop table their dense twins allocate — that contrast is the
  // memory story the 32x32x32 scenario depends on.
  const auto mesh16 = [] { return wi::noc::Topology::mesh_3d(16, 16, 16); };
  // Traffic pattern construction + one probability row read (the row
  // read keeps both sides' op big enough to time stably).
  const auto traffic_build = [](wi::noc::TrafficPattern (*make)(std::size_t),
                                std::size_t modules) {
    volatile double sink = 0.0;
    const wi::noc::TrafficPattern p = make(modules);
    double sum = 0.0;
    for (std::size_t d = 0; d < modules; ++d) sum += p.probability(0, d);
    sink = sum;
    (void)sink;
  };
  isolated([&](std::vector<Entry>& out) {
    const std::size_t modules = mesh16().module_count();
    push_entry(out,
               {"traffic_build/mesh3d_16x16x16/implicit",
                time_ns(
                    [&] {
                      traffic_build(wi::noc::TrafficPattern::implicit_uniform,
                                    modules);
                    },
                    reps_fast),
                0.0, 0.0, ""});
  });
  isolated([&](std::vector<Entry>& out) {
    const std::size_t modules = mesh16().module_count();
    const double traffic_implicit = time_ns(
        [&] {
          traffic_build(wi::noc::TrafficPattern::implicit_uniform, modules);
        },
        reps_fast);
    const double traffic_dense = time_ns(
        [&] { traffic_build(wi::noc::TrafficPattern::uniform, modules); },
        reps_slow);
    push_entry(out, {"traffic_build/mesh3d_16x16x16", traffic_implicit,
                     traffic_dense, 0.0, ""});
  });

  // Routing structure build: MeshGrid coordinate analysis vs the dense
  // (router, dst) first-hop port table the simulator needs when the
  // mesh shape is not recognised; the baselined entry times the two
  // alternately.
  const auto routing_implicit = [](const wi::noc::Topology& topo) {
    volatile std::size_t sink = 0;
    const auto grid = wi::noc::MeshGrid::analyze(topo);
    sink = grid ? grid->next_port(0, topo.router_count() - 1) : 0;
    (void)sink;
  };
  isolated([&](std::vector<Entry>& out) {
    const wi::noc::Topology topo = mesh16();
    push_entry(out, {"routing_build/mesh3d_16x16x16/implicit",
                     time_ns([&] { routing_implicit(topo); }, reps_fast), 0.0,
                     0.0, ""});
  });
  isolated([&](std::vector<Entry>& out) {
    const wi::noc::Topology topo = mesh16();
    const std::size_t routers = topo.router_count();
    const wi::noc::DimensionOrderRouting routing;
    volatile std::size_t sink = 0;
    const auto [routing_dense, routing_opt] = time_pair_ns(
        [&] {
          std::vector<std::uint8_t> table(routers * routers, 0xFF);
          for (std::size_t r = 0; r < routers; ++r) {
            const auto& outs = topo.out_links(r);
            for (std::size_t dst = 0; dst < routers; ++dst) {
              if (dst == r) continue;
              const std::size_t link = routing.first_hop(topo, r, dst);
              for (std::size_t p = 0; p < outs.size(); ++p) {
                if (outs[p] == link) {
                  table[r * routers + dst] = static_cast<std::uint8_t>(p);
                  break;
                }
              }
            }
          }
          sink = table[routers];
        },
        [&] { routing_implicit(topo); }, reps_pair, reps_fast);
    push_entry(out, {"routing_build/mesh3d_16x16x16", routing_opt,
                     routing_dense, 0.0, ""});
    (void)sink;
  });

  // Queueing-model setup: closed-form channel loads vs the dense
  // all-pairs route walk (8x8x8 keeps the dense twin affordable).
  isolated([&](std::vector<Entry>& out) {
    const wi::noc::Topology q_topo = wi::noc::Topology::mesh_3d(8, 8, 8);
    const std::size_t q_modules = q_topo.module_count();
    const wi::noc::DimensionOrderRouting routing;
    volatile double sink = 0.0;
    const auto [queueing_dense, queueing_implicit] = time_pair_ns(
        [&] {
          const wi::noc::QueueingModel model(
              q_topo, routing, wi::noc::TrafficPattern::uniform(q_modules));
          sink = model.saturation_rate();
        },
        [&] {
          const wi::noc::QueueingModel model(
              q_topo, routing,
              wi::noc::TrafficPattern::implicit_uniform(q_modules));
          sink = model.saturation_rate();
        },
        reps_pair, reps_fast);
    push_entry(out, {"queueing_build/mesh3d_8x8x8", queueing_implicit,
                     queueing_dense, 0.0, ""});
    (void)sink;
  });

  // --- end-to-end SimEngine scenario (Fig. 8a queueing-model table) ---
  isolated([&](std::vector<Entry>& out) {
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
    push_entry(out, {"sim_engine/fig08a_mesh2d_8x8_noc_latency", t, 0.0, 0.0,
                     ""});
    (void)sink;
  });

  // --- LDPC decoding (Fig. 10): one tanh per edge, caller-owned
  // workspace, against the decoders as they stood before. Per op: one
  // codeword, averaged over a fixed set drawn at the paper's operating
  // region (BPSK/AWGN, all-zero codeword).
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
  const double count = static_cast<double>(codewords);
  isolated([&](std::vector<Entry>& out) {
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
        reps_pair);
    push_entry(out,
               {"ldpc_decode/window_cc_n40_w6_l24_3.5db", cc_opt / count,
                cc_base / count,
                static_cast<double>(cc.codeword_length()) * count / cc_opt *
                    1e3,
                "Mbit/s"});
    (void)sink;
  });
  isolated([&](std::vector<Entry>& out) {
    volatile std::size_t sink = 0;
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
        reps_pair);
    push_entry(out,
               {"ldpc_decode/bp_bc_n200_3.5db", bc_opt / count,
                bc_base / count,
                static_cast<double>(bc.block_length()) * count / bc_opt * 1e3,
                "Mbit/s"});
    (void)sink;
  });

  // --- LDPC code construction (Fig. 10's largest liftings): girth
  // search from one column per base column against the all-starts
  // construction it replaced, alternately, best of 9.
  isolated([&](std::vector<Entry>& out) {
    volatile std::size_t sink = 0;
    const auto spreading = wi::fec::EdgeSpreading::paper_example();
    const auto [cc_base, cc_opt] = time_pair_ns(
        [&] {
          sink = wi::perf_baseline::ldpc_cc_parity_check(spreading, 60, 10, 60)
                     .nonzeros();
        },
        [&] {
          const wi::fec::LdpcConvolutionalCode code(spreading, 60, 10, 60);
          sink = code.parity_check().nonzeros();
        },
        reps_pair);
    push_entry(out, {"ldpc_code_build/cc_n60_l10", cc_opt, cc_base, 0.0, ""});
    (void)sink;
  });
  isolated([&](std::vector<Entry>& out) {
    volatile std::size_t sink = 0;
    const wi::fec::BaseMatrix base({{4, 4}});
    const auto [bc_base, bc_opt] = time_pair_ns(
        [&] {
          sink = wi::perf_baseline::qc_block_parity_check(base, 400, 400)
                     .nonzeros();
        },
        [&] {
          const wi::fec::QcLdpcBlockCode code(base, 400, 400);
          sink = code.parity_check().nonzeros();
        },
        reps_pair);
    push_entry(out, {"ldpc_code_build/bc_n400", bc_opt, bc_base, 0.0, ""});
    (void)sink;
  });

  Json doc = Json::object();
  doc.set("schema", Json("wi-bench-perf-v1"));
  doc.set("note",
          Json("best-of-N wall times; baseline = frozen pre-optimization "
               "kernel measured in the same process"));
  doc.set("benchmarks", benchmarks);
  std::ofstream(out_path) << doc.dump(2) << "\n";
  std::cout << "wrote " << out_path << "\n";
  for (const Json& e : benchmarks.as_array()) {
    std::printf("  %-50s %12.0f ns/op", e.at("name").as_string().c_str(),
                e.at("ns_per_op").as_number());
    if (const Json* base = e.find("baseline_ns_per_op")) {
      std::printf("  (baseline %12.0f, speedup %.2fx)", base->as_number(),
                  e.at("speedup").as_number());
    }
    if (const Json* legacy = e.find("legacy_ns_per_op")) {
      std::printf("  (legacy %12.0f, speedup %.2fx)", legacy->as_number(),
                  e.at("speedup_vs_legacy").as_number());
    }
    std::printf("\n");
  }
  return 0;
}
