/// \file test_fanout.cpp
/// \brief WorkloadEnv::parallel_for under the engine's thread budget,
///        the ldpc_latency workload that fans its required-Eb/N0
///        searches out with it (tables byte-identical at any thread
///        count, failures reported as a Status, spec validation and the
///        computed trend note), and flit_sim, which runs one task per
///        injection rate.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <climits>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "wi/common/table_io.hpp"
#include "wi/fec/ber.hpp"
#include "wi/noc/flit_sim.hpp"
#include "wi/sim/engine.hpp"
#include "wi/sim/workload.hpp"
#include "wi/sim/workloads/flit_sim.hpp"
#include "wi/sim/workloads/ldpc_latency.hpp"

namespace wi::sim {
namespace {

// --- parallel_for through a test workload -------------------------------

std::atomic<int> g_running{0};
std::atomic<int> g_max_running{0};

/// Payload-free workload whose behaviour is picked by the scenario name:
/// "sleepy" runs 8 sleeping tasks and reports the peak task concurrency
/// through g_max_running; "throws" fails tasks 5 and 2 (a StatusError
/// and a runtime_error); "nested" fans out from inside its tasks. Each
/// writes one row per task from that task's own slot.
class FanOutProbe final : public WorkloadRunner {
 public:
  std::string name() const override { return "test_fanout_probe"; }
  std::vector<std::string> headers() const override { return {"i", "v"}; }

  Table run(const ScenarioSpec& spec, WorkloadEnv& env) const override {
    const std::size_t count = 8;
    std::vector<long long> slots(count, 0);
    env.parallel_for(count, [&](std::size_t i) {
      if (spec.name == "throws" && i == 5) {
        throw std::runtime_error("task 5 failed");
      }
      if (spec.name == "throws" && i == 2) {
        throw StatusError(
            Status(StatusCode::kInvalidSpec, "task 2 failed"));
      }
      if (spec.name == "nested") {
        std::vector<long long> inner(4, 0);
        env.parallel_for(inner.size(), [&](std::size_t j) {
          inner[j] = static_cast<long long>(10 * i + j);
        });
        for (const long long v : inner) slots[i] += v;
        return;
      }
      const int now = g_running.fetch_add(1) + 1;
      int seen = g_max_running.load();
      while (now > seen && !g_max_running.compare_exchange_weak(seen, now)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(15));
      g_running.fetch_sub(1);
      slots[i] = static_cast<long long>(i * i);
    });
    Table table(headers());
    for (std::size_t i = 0; i < count; ++i) {
      table.add_row({Table::num(static_cast<long long>(i)),
                     Table::num(slots[i])});
    }
    return table;
  }
};

ScenarioSpec probe_spec(const std::string& name) {
  static std::once_flag once;
  std::call_once(once, [] {
    WorkloadRegistry::global().register_runner(
        std::make_unique<FanOutProbe>());
  });
  ScenarioSpec spec;
  spec.name = name;
  spec.workload = "test_fanout_probe";
  return spec;
}

int peak_concurrency(SimEngine& engine, const std::vector<ScenarioSpec>& specs,
                     std::size_t threads) {
  g_max_running = 0;
  for (const RunResult& r : engine.run_all(specs, threads)) {
    EXPECT_TRUE(r.ok()) << r.status.to_string();
  }
  return g_max_running.load();
}

TEST(FanOut, LoneRunUsesTheEngineThreadsAndNoMore) {
  SimEngine engine({3});
  g_max_running = 0;
  const RunResult r = engine.run(probe_spec("sleepy"));
  ASSERT_TRUE(r.ok()) << r.status.to_string();
  EXPECT_EQ(r.table.cell(7, 1), "49");
  EXPECT_GE(g_max_running.load(), 2);
  EXPECT_LE(g_max_running.load(), 3);
}

TEST(FanOut, RunAllSharesOneBudget) {
  SimEngine engine;
  const std::vector<ScenarioSpec> specs(3, probe_spec("sleepy"));
  EXPECT_LE(peak_concurrency(engine, specs, 2), 2);
  EXPECT_LE(peak_concurrency(engine, specs, 4), 4);
  EXPECT_EQ(peak_concurrency(engine, {probe_spec("sleepy")}, 1), 1);
}

TEST(FanOut, SerialPhyBuildsEngineRunsInline) {
  SimEngine engine({4, /*serial_phy_builds=*/true});
  g_max_running = 0;
  ASSERT_TRUE(engine.run(probe_spec("sleepy")).ok());
  EXPECT_EQ(g_max_running.load(), 1);
  EXPECT_EQ(peak_concurrency(engine, {probe_spec("sleepy")}, 4), 1);
  // Scenarios still run side by side; only their tasks stay inline.
  EXPECT_LE(peak_concurrency(engine, std::vector<ScenarioSpec>(
                                         3, probe_spec("sleepy")),
                             4),
            3);
}

TEST(FanOut, LowestFailingTaskIsReportedAtAnyThreadCount) {
  for (const std::size_t threads : {1u, 4u}) {
    SimEngine engine({threads});
    const RunResult r = engine.run(probe_spec("throws"));
    EXPECT_EQ(r.status.code(), StatusCode::kInvalidSpec) << threads;
    EXPECT_EQ(r.status.message(), "task 2 failed") << threads;
    EXPECT_EQ(r.table.rows(), 0u);
    const auto all = engine.run_all(
        {probe_spec("sleepy"), probe_spec("throws"), probe_spec("sleepy")},
        threads);
    EXPECT_TRUE(all[0].ok());
    EXPECT_EQ(all[1].status.message(), "task 2 failed") << threads;
    EXPECT_TRUE(all[2].ok());
  }
}

TEST(FanOut, NestedFanOutCompletes) {
  for (const std::size_t threads : {1u, 4u}) {
    SimEngine engine({threads});
    const auto all =
        engine.run_all({probe_spec("nested"), probe_spec("nested")}, threads);
    for (const RunResult& r : all) {
      ASSERT_TRUE(r.ok()) << r.status.to_string();
      EXPECT_EQ(r.table.cell(3, 1), "126");  // 4 * 30 + (0+1+2+3)
    }
  }
}

// --- ldpc_latency ---------------------------------------------------------

/// Fig. 10 at a reduced budget: five LDPC-CC searches and two LDPC-BC
/// searches, shifted by `variant` so run_all specs differ.
ScenarioSpec reduced_fig10(std::size_t variant = 0) {
  ScenarioSpec spec;
  spec.name = "reduced_fig10_" + std::to_string(variant);
  spec.workload = "ldpc_latency";
  auto& l = spec.payload<LdpcLatencySpec>();
  l.target_ber = 1e-3;
  l.min_errors = 5;
  l.max_codewords = 3;
  l.max_bp_iterations = 20;
  l.termination = 8;
  l.cc_curves = {{25, 3, 5}, {40, 3 + variant % 2, 4 + variant % 2}};
  l.bc_liftings = {100, 150 + 50 * variant};
  l.search_lo_db = 1.0 + 0.25 * static_cast<double>(variant);
  l.search_hi_db = 6.0;
  l.search_step_db = 0.5;
  return spec;
}

/// The searches one after another through the per-point BER calls, the
/// way the workload ran them before it fanned out.
Table serial_reference(const ScenarioSpec& spec) {
  using namespace wi::fec;
  const auto& l = spec.payload<LdpcLatencySpec>();
  BpOptions bp;
  bp.max_iterations = static_cast<int>(l.max_bp_iterations);
  Table table(workload_headers("ldpc_latency"));
  for (const auto& curve : l.cc_curves) {
    const std::size_t n = curve.lifting;
    const LdpcConvolutionalCode code(EdgeSpreading::paper_example(), n,
                                     l.termination, n);
    for (std::size_t w = curve.window_lo; w <= curve.window_hi; ++w) {
      const auto simulate = [&](double ebn0) {
        BerConfig config;
        config.ebn0_db = ebn0;
        config.min_errors = l.min_errors;
        config.max_codewords = l.max_codewords;
        config.seed = 1000 + n + w;
        config.bp = bp;
        return simulate_ber_window(code, w, config);
      };
      table.add_row(
          {"LDPC-CC", Table::num(static_cast<long long>(n)),
           Table::num(static_cast<long long>(w)),
           Table::num(window_decoder_latency_bits(w, n, code.nv(),
                                                  code.rate_asymptotic()),
                      0),
           Table::num(required_ebn0_db(simulate, l.target_ber,
                                       l.search_lo_db, l.search_hi_db,
                                       l.search_step_db),
                      2)});
    }
  }
  for (const std::size_t n : l.bc_liftings) {
    const QcLdpcBlockCode code(BaseMatrix({{4, 4}}), n, n);
    const auto simulate = [&](double ebn0) {
      BerConfig config;
      config.ebn0_db = ebn0;
      config.min_errors = l.min_errors;
      config.max_codewords = l.max_codewords;
      config.seed = 2000 + n;
      config.bp = bp;
      return simulate_ber_block(code, config);
    };
    table.add_row({"LDPC-BC", Table::num(static_cast<long long>(n)), "-",
                   Table::num(block_code_latency_bits(n, 2, 0.5), 0),
                   Table::num(required_ebn0_db(simulate, l.target_ber,
                                               l.search_lo_db, l.search_hi_db,
                                               l.search_step_db),
                              2)});
  }
  return table;
}

TEST(LdpcLatencyFanOut, ByteIdenticalAtOneAndFourThreads) {
  const ScenarioSpec spec = reduced_fig10();
  SimEngine one({1});
  SimEngine four({4});
  const RunResult a = one.run(spec);
  const RunResult b = four.run(spec);
  ASSERT_TRUE(a.ok()) << a.status.to_string();
  ASSERT_TRUE(b.ok()) << b.status.to_string();
  EXPECT_EQ(a.table.rows(), 7u);
  EXPECT_EQ(to_csv(a.table), to_csv(b.table));
  EXPECT_EQ(a.notes, b.notes);
  EXPECT_EQ(to_csv(a.table), to_csv(serial_reference(spec)));
}

TEST(LdpcLatencyFanOut, RunAllAndSerialEngineGiveTheSameTables) {
  std::vector<ScenarioSpec> specs;
  for (std::size_t v = 0; v < 4; ++v) specs.push_back(reduced_fig10(v));
  SimEngine lone({1});
  std::vector<std::string> expected;
  for (const ScenarioSpec& spec : specs) {
    const RunResult r = lone.run(spec);
    ASSERT_TRUE(r.ok()) << r.status.to_string();
    expected.push_back(to_csv(r.table));
  }
  SimEngine pooled({4});
  SimEngine serial({4, /*serial_phy_builds=*/true});
  const auto pooled_results = pooled.run_all(specs, 4);
  const auto serial_results = serial.run_all(specs, 4);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    ASSERT_TRUE(pooled_results[i].ok());
    ASSERT_TRUE(serial_results[i].ok());
    EXPECT_EQ(to_csv(pooled_results[i].table), expected[i]) << i;
    EXPECT_EQ(to_csv(serial_results[i].table), expected[i]) << i;
  }
  EXPECT_EQ(to_csv(serial.run(specs[1]).table), expected[1]);
}

TEST(LdpcLatencyFanOut, FailingTaskFailsTheScenarioWithAStatus) {
  // A block lifting below the protograph's edge multiplicity (4) makes
  // that code's build throw inside a fan-out task.
  ScenarioSpec spec = reduced_fig10();
  spec.payload<LdpcLatencySpec>().bc_liftings = {100, 3, 150};
  std::vector<RunResult> results;
  for (const std::size_t threads : {1u, 4u}) {
    SimEngine engine({threads});
    results.push_back(engine.run(spec));
    results.push_back(engine.run_all({spec, reduced_fig10()}, threads)[0]);
  }
  for (const RunResult& r : results) {
    EXPECT_EQ(r.status.code(), StatusCode::kExecutionError);
    EXPECT_EQ(r.status.message(), results[0].status.message());
    EXPECT_EQ(r.table.rows(), 0u);
  }
  EXPECT_NE(results[0].status.message().find("lifting too small"),
            std::string::npos);
}

TEST(LdpcLatencyValidate, RejectsIterationsBeyondInt) {
  ScenarioSpec spec = reduced_fig10();
  auto& l = spec.payload<LdpcLatencySpec>();
  l.max_bp_iterations = static_cast<std::size_t>(INT_MAX);
  EXPECT_TRUE(spec.validate().is_ok());
  l.max_bp_iterations = static_cast<std::size_t>(INT_MAX) + 1;
  EXPECT_EQ(spec.validate().code(), StatusCode::kInvalidSpec);
  SimEngine engine({1});
  EXPECT_EQ(engine.run(spec).status.code(), StatusCode::kInvalidSpec);
}

TEST(LdpcLatencyValidate, RejectsWindowsBelowMccPlusOne) {
  ScenarioSpec spec = reduced_fig10();
  auto& l = spec.payload<LdpcLatencySpec>();
  l.cc_curves = {{25, 2, 4}};  // the paper's spreading has mcc = 2
  const Status status = spec.validate();
  EXPECT_EQ(status.code(), StatusCode::kInvalidSpec);
  EXPECT_NE(status.message().find("mcc + 1 = 3"), std::string::npos);
  SimEngine engine({1});
  EXPECT_EQ(engine.run(spec).status.code(), StatusCode::kInvalidSpec);
  l.cc_curves = {{25, 3, 4}};
  EXPECT_TRUE(spec.validate().is_ok());
}

TEST(LdpcTrendNote, ComputedFromTheTable) {
  // The committed Fig. 10 golden: the trends are not resolved.
  Table golden(workload_headers("ldpc_latency"));
  const char* rows[][5] = {
      {"LDPC-CC", "25", "3", "75", "4.34"},
      {"LDPC-CC", "25", "4", "100", "4.29"},
      {"LDPC-CC", "25", "5", "125", "4.16"},
      {"LDPC-CC", "25", "6", "150", "3.91"},
      {"LDPC-CC", "25", "7", "175", "4.05"},
      {"LDPC-CC", "25", "8", "200", "4.05"},
      {"LDPC-CC", "40", "3", "120", "4.61"},
      {"LDPC-CC", "40", "4", "160", "4.16"},
      {"LDPC-CC", "40", "5", "200", "4.29"},
      {"LDPC-CC", "40", "6", "240", "3.90"},
      {"LDPC-CC", "40", "7", "280", "4.16"},
      {"LDPC-CC", "40", "8", "320", "4.28"},
      {"LDPC-CC", "60", "4", "240", "4.14"},
      {"LDPC-CC", "60", "5", "300", "3.86"},
      {"LDPC-CC", "60", "6", "360", "4.28"},
      {"LDPC-BC", "100", "-", "100", "4.39"},
      {"LDPC-BC", "150", "-", "150", "3.56"},
      {"LDPC-BC", "200", "-", "200", "3.62"},
      {"LDPC-BC", "300", "-", "300", "3.88"},
      {"LDPC-BC", "400", "-", "400", "4.42"},
  };
  for (const auto& row : rows) {
    golden.add_row({row[0], row[1], row[2], row[3], row[4]});
  }
  EXPECT_EQ(ldpc_trend_note(golden),
            "required Eb/N0: LDPC-CC N=25 not monotone in W (rises at 1 of "
            "5 steps); LDPC-CC N=40 not monotone in W (rises at 3 of 5 "
            "steps); LDPC-CC N=60 not monotone in W (rises at 1 of 2 "
            "steps); LDPC-BC not monotone in N (rises at 3 of 4 steps); an "
            "LDPC-CC point needs less Eb/N0 at equal or lower latency at 3 "
            "of 5 LDPC-BC points");

  Table clean(workload_headers("ldpc_latency"));
  clean.add_row({"LDPC-CC", "25", "3", "75", "4.30"});
  clean.add_row({"LDPC-CC", "25", "4", "100", "4.30"});
  clean.add_row({"LDPC-CC", "25", "5", "125", "4.10"});
  clean.add_row({"LDPC-BC", "200", "-", "200", "4.00"});
  clean.add_row({"LDPC-BC", "100", "-", "100", "4.50"});
  EXPECT_EQ(ldpc_trend_note(clean),
            "required Eb/N0: LDPC-CC N=25 monotone in W; LDPC-BC monotone "
            "in N; an LDPC-CC point needs less Eb/N0 at equal or lower "
            "latency at 1 of 2 LDPC-BC points");
}

TEST(LdpcTrendNote, NoteOfARunMatchesItsTable) {
  SimEngine engine({2});
  const RunResult r = engine.run(reduced_fig10());
  ASSERT_TRUE(r.ok()) << r.status.to_string();
  ASSERT_EQ(r.notes.size(), 1u);
  const std::string trend = ldpc_trend_note(r.table);
  ASSERT_GE(r.notes[0].size(), trend.size());
  EXPECT_EQ(r.notes[0].substr(r.notes[0].size() - trend.size()), trend);
}

// --- flit_sim ---------------------------------------------------------------

/// A 4x4x4-mesh flit DES at four injection rates, from light load to
/// saturation, shifted by `variant` so run_all specs differ.
ScenarioSpec multi_rate_flit(std::size_t variant = 0) {
  ScenarioSpec spec;
  spec.name = "multi_rate_flit_" + std::to_string(variant);
  spec.workload = "flit_sim";
  spec.noc.topology.kind = TopologySpec::Kind::kMesh3d;
  spec.noc.topology.kx = 4;
  spec.noc.topology.ky = 4;
  spec.noc.topology.kz = 4;
  auto& flit = spec.payload<FlitSimSpec>();
  flit.injection_rates = {0.05, 0.3, 0.5 + 0.05 * static_cast<double>(variant),
                          0.9};
  flit.warmup_cycles = 300;
  flit.measure_cycles = 1500;
  flit.drain_cycles = 1500;
  flit.seed = 3 + variant;
  return spec;
}

/// The rates one after another through simulate_network, the way the
/// workload ran them before it fanned out.
Table serial_flit_reference(const ScenarioSpec& spec) {
  const auto& flit = spec.payload<FlitSimSpec>();
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
  Table table(workload_headers("flit_sim"));
  for (const double rate : flit.injection_rates) {
    const noc::FlitSimResult des =
        simulate_network(topology, *routing, traffic, rate, config);
    table.add_row(
        {Table::num(rate, 3), Table::num(des.mean_latency_cycles, 4),
         Table::num(des.delivered_per_cycle, 5),
         Table::num(static_cast<long long>(des.delivered)),
         Table::num(static_cast<long long>(des.injected)),
         des.stable ? "yes" : "no"});
  }
  return table;
}

TEST(FlitSimFanOut, ByteIdenticalAtOneAndFourThreads) {
  const ScenarioSpec spec = multi_rate_flit();
  SimEngine one({1});
  SimEngine four({4});
  const RunResult a = one.run(spec);
  const RunResult b = four.run(spec);
  ASSERT_TRUE(a.ok()) << a.status.to_string();
  ASSERT_TRUE(b.ok()) << b.status.to_string();
  EXPECT_EQ(a.table.rows(), 4u);
  EXPECT_EQ(to_csv(a.table), to_csv(b.table));
  EXPECT_EQ(a.notes, b.notes);
  EXPECT_EQ(to_csv(a.table), to_csv(serial_flit_reference(spec)));
}

TEST(FlitSimFanOut, RunAllAndSerialEngineGiveTheSameTables) {
  std::vector<ScenarioSpec> specs;
  for (std::size_t v = 0; v < 3; ++v) specs.push_back(multi_rate_flit(v));
  SimEngine lone({1});
  std::vector<std::string> expected;
  for (const ScenarioSpec& spec : specs) {
    const RunResult r = lone.run(spec);
    ASSERT_TRUE(r.ok()) << r.status.to_string();
    expected.push_back(to_csv(r.table));
    EXPECT_EQ(expected.back(), to_csv(serial_flit_reference(spec)));
  }
  SimEngine pooled({4});
  const auto results = pooled.run_all(specs, 4);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << results[i].status.to_string();
    EXPECT_EQ(to_csv(results[i].table), expected[i]) << i;
  }
}

}  // namespace
}  // namespace wi::sim
