#pragma once
/// \file workload.hpp
/// \brief The perfbench workload interfaces and the report every run
///        prints.

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "trace.hpp"
#include "wi/common/table.hpp"
#include "wi/sim/scenario.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 15.0;
  bool trace = false;
  std::filesystem::path refs_dir;  ///< committed reference digests
  std::filesystem::path work_dir;  ///< scratch + trace output
  /// wall_s() time at which the process was spawned: setup_s runs from
  /// here to the first op being ready.
  double spawn_s = 0.0;
  /// Stop after the set-up: a cold set-up sample for the setup_s median.
  bool setup_only = false;
};

/// What one run prints: end-to-end metrics (timed run) or per-layer
/// metrics (traced run), plus free-form notes printed before the
/// result line.
struct RunReport {
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::map<std::string, double> metrics;
  std::vector<std::string> notes;
};

/// Committed per-op reference digests of one workload and seed.
class References {
 public:
  /// Loads `<dir>/<workload>.json`; a seed without references leaves
  /// the set empty, and the run says so.
  References(const std::filesystem::path& dir, const std::string& workload,
             std::uint64_t seed);

  /// Reference of op `index`, if committed.
  [[nodiscard]] std::optional<std::string> at(std::size_t index) const;

 private:
  std::vector<std::string> digests_;
};

/// Named per-layer counters a replay accumulates next to its spans.
using Counters = std::map<std::string, double>;

/// A closed-loop batch of engine ops (ldpc, noc_small).
class BatchWorkload {
 public:
  virtual ~BatchWorkload() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Ops in a timed run of `seconds`: fixed by the argument, never by
  /// a clock, so every run of one seed does the same work.
  [[nodiscard]] virtual std::size_t ops_for(double seconds) const = 0;

  /// Spec of op `index` for workload seed `seed`, built through the
  /// ScenarioSpec API. Depends on (seed, index) only.
  [[nodiscard]] virtual wi::sim::ScenarioSpec make_op(
      std::uint64_t seed, std::size_t index) const = 0;

  /// Replay one op through the layer's public calls, mirroring the
  /// workload runner: the mirrored calls go inside a "replay.mirror"
  /// span, extra layer probes inside "replay.probe". Returns the
  /// mirrored result table (its digest must equal the engine op's).
  [[nodiscard]] virtual wi::Table replay(const wi::sim::ScenarioSpec& spec,
                                         Tracer& tracer,
                                         Counters& counters) const = 0;

  /// Per-layer metrics of this workload's layers from the traced run.
  virtual void layer_metrics(const std::map<std::string, SpanTotals>& spans,
                             const Counters& counters,
                             std::map<std::string, double>& out) const = 0;
};

/// "ldpc" or "noc_small"; nullptr for any other name.
[[nodiscard]] std::unique_ptr<BatchWorkload> make_batch_workload(
    const std::string& name);

/// Timed/traced runs of a batch workload.
[[nodiscard]] RunReport run_batch(const BatchWorkload& workload,
                                  const RunOptions& options);

/// The open-loop wi_serve mix.
[[nodiscard]] RunReport run_serve_mix(const RunOptions& options);

/// Specs whose digests the committed references pin, in reference
/// order: the batch ops, or the serve mix's distinct well-formed specs.
[[nodiscard]] std::vector<wi::sim::ScenarioSpec> reference_specs(
    const std::string& workload, std::uint64_t seed, double seconds);

/// Every per-layer metric name, in report order.
[[nodiscard]] const std::vector<std::string>& per_layer_metric_names();

}  // namespace perfbench
