#pragma once
/// \file engine.hpp
/// \brief Scenario execution facade: one entry point from link budget
///        to NoC evaluation.
///
/// SimEngine turns a declarative ScenarioSpec into a structured
/// ResultTable by dispatching to the workload's registered runner (see
/// wi/sim/workload.hpp) — the engine itself is pure orchestration:
/// the work-stealing pool, the shared PhyCurveCache
/// and result plumbing, with no knowledge of any concrete workload.
/// Per-scenario failures (invalid specs, unreachable routes, ...) are
/// captured as a Status in the result — one bad grid point never aborts
/// a sweep — and results are deterministic: the same spec list produces
/// cell-identical tables at any thread count.

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "wi/common/table.hpp"
#include "wi/sim/phy_curve_cache.hpp"
#include "wi/sim/scenario.hpp"
#include "wi/sim/status.hpp"
#include "wi/sim/workload.hpp"

namespace wi::sim {

/// Result of one scenario run. `table` uses the workload's schema (see
/// workload_headers); `notes` carry derived scalars (fits, anchors,
/// cross-checks) that do not fit the row schema.
struct RunResult {
  std::string scenario;
  Status status;
  Table table;
  std::vector<std::string> notes;

  [[nodiscard]] bool ok() const { return status.is_ok(); }
};

/// Engine options.
struct EngineOptions {
  /// Worker threads for run_all, and the fan-out budget of a
  /// lone run(); 0 = hardware concurrency.
  std::size_t threads = 0;
  /// Reuse hook for engines embedded in an external worker pool (the
  /// wi_serve daemon): pin PHY curve builds to one thread, because the
  /// *callers* are already running run() concurrently and a nested
  /// curve-build pool per cache miss would oversubscribe the machine.
  /// run_all() honors the pin too (it restores whatever build-thread
  /// setting it found rather than resetting to "parallel"), and
  /// workload fan-outs (WorkloadEnv::parallel_for) run inline.
  bool serial_phy_builds = false;
};

/// Executes scenarios; owns the PHY curve cache shared across runs.
class SimEngine {
 public:
  explicit SimEngine(EngineOptions options = {});

  /// Run one scenario. Never throws for per-scenario failures: the
  /// returned status records them and the table stays empty. A workload
  /// that fans out (WorkloadEnv::parallel_for) may use up to the
  /// engine's thread count.
  [[nodiscard]] RunResult run(const ScenarioSpec& spec);

  /// Completion hook for run_all: called once per scenario with its
  /// input index, as soon as that result exists. With multiple worker
  /// threads the callback runs concurrently from the workers — it must
  /// be thread-safe (the ResultStore uses it to persist each grid point
  /// immediately, which is what makes interrupted sweeps resumable).
  using ResultCallback =
      std::function<void(std::size_t index, const RunResult& result)>;

  /// Run many scenarios on a work-stealing thread pool. Results are in
  /// input order and cell-identical for every thread count. The thread
  /// count bounds everything the call runs: workers out of scenarios
  /// help with the fan-out tasks of those still running.
  /// \param threads  0 = engine option (0 there = hardware concurrency)
  [[nodiscard]] std::vector<RunResult> run_all(
      const std::vector<ScenarioSpec>& specs, std::size_t threads = 0,
      const ResultCallback& on_result = {});

  [[nodiscard]] PhyCurveCache& phy_cache() { return phy_cache_; }
  [[nodiscard]] const PhyCurveCache& phy_cache() const { return phy_cache_; }

  [[nodiscard]] const EngineOptions& options() const { return options_; }

 private:
  [[nodiscard]] std::size_t resolve_threads(std::size_t requested) const;
  [[nodiscard]] RunResult run_with(const ScenarioSpec& spec,
                                   detail::FanOut& fan_out);

  EngineOptions options_;
  PhyCurveCache phy_cache_;
};

/// Print a run result (notes, then the table) — the output path of
/// wi_run and the quickstart example.
void print_result(std::ostream& os, const RunResult& result);

}  // namespace wi::sim
