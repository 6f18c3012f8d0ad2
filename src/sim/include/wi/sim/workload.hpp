#pragma once
/// \file workload.hpp
/// \brief The open workload-plugin layer: WorkloadRunner interface +
///        process-wide WorkloadRegistry.
///
/// A *workload* is what a scenario computes (one ResultTable schema).
/// Each workload lives in exactly one file under src/sim/workloads/:
/// a WorkloadRunner subclass bundling the name, the table schema, the
/// payload defaults + JSON codec, validation, the campaign reseeding
/// hook and the run() implementation — registered into the global
/// WorkloadRegistry via WI_SIM_REGISTER_WORKLOAD. SimEngine, the
/// scenario JSON codec, ScenarioRegistry and wi_run all dispatch
/// through the registry, so adding a workload is one new file (plus a
/// registry scenario + golden), never an engine edit.
///
/// Linker note: the build generates wi_workload_link.cpp from the
/// directory glob of src/sim/workloads/*.cpp; it references every
/// plugin's registration hook, so static-archive linking can never drop
/// a plugin object silently.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "wi/common/json.hpp"
#include "wi/common/table.hpp"
#include "wi/sim/phy_curve_cache.hpp"
#include "wi/sim/scenario.hpp"
#include "wi/sim/status.hpp"

namespace wi::sim {

namespace detail {
class FanOut;  // the engine's per-call thread budget (engine.cpp)
}  // namespace detail

/// Execution environment a runner sees: the engine's shared PHY curve
/// cache, the engine's threads (through parallel_for) and the result
/// hooks (notes that end up on the RunResult next to the table).
/// Campaigns reseed a run through WorkloadRunner::apply_seed, not here.
class WorkloadEnv {
 public:
  explicit WorkloadEnv(PhyCurveCache& phy_cache,
                       detail::FanOut* fan_out = nullptr)
      : phy_cache_(phy_cache), fan_out_(fan_out) {}

  [[nodiscard]] PhyCurveCache& phy_cache() { return phy_cache_; }

  /// Runs task(0) .. task(count - 1) and returns when all have finished.
  /// Tasks may run concurrently on the engine's threads, in any order,
  /// so they must be independent of each other and must not touch this
  /// env; a runner writes each task's output to its own slot and builds
  /// the table afterwards. If tasks throw, the exception of the lowest
  /// failing index is rethrown, as a serial loop would throw it. The
  /// threads come from the engine call the env belongs to: a lone run()
  /// may use the engine's thread count, a run_all() shares its thread
  /// count between its workers and every fan-out under it, and an
  /// engine with serial_phy_builds (or one thread) runs tasks inline.
  /// A task may itself call parallel_for.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& task);

  /// Result hook: appends one line to the RunResult's notes.
  void note(std::string line) { notes_.push_back(std::move(line)); }

  [[nodiscard]] std::vector<std::string>& notes() { return notes_; }

 private:
  PhyCurveCache& phy_cache_;
  detail::FanOut* fan_out_ = nullptr;
  std::vector<std::string> notes_;
};

/// One pluggable workload: everything the sim layer needs to know about
/// it, behind one interface.
class WorkloadRunner {
 public:
  virtual ~WorkloadRunner() = default;

  /// Stable workload key ("info_rates", ...). This string is what
  /// ScenarioSpec::workload holds and what the JSON codec round-trips —
  /// renaming it invalidates spec files and store keys.
  [[nodiscard]] virtual std::string name() const = 0;

  /// JSON key of the payload section in a serialized spec. Defaults to
  /// name(); override to keep a legacy key (e.g. "info_rate").
  [[nodiscard]] virtual std::string payload_key() const { return name(); }

  /// One-line human description (wi_run --list).
  [[nodiscard]] virtual std::string description() const { return {}; }

  /// ResultTable column schema (stable independent of success/failure,
  /// so every result of one workload has the same columns).
  [[nodiscard]] virtual std::vector<std::string> headers() const = 0;

  /// Fresh default payload; nullptr when the workload has none.
  [[nodiscard]] virtual std::unique_ptr<WorkloadPayload> default_payload()
      const {
    return nullptr;
  }

  /// Payload section of the canonical spec JSON; a null Json means "no
  /// payload section" (the default for payload-free workloads).
  [[nodiscard]] virtual Json payload_to_json(const ScenarioSpec&) const {
    return Json();
  }

  /// Decode the payload section into `spec`; throws
  /// StatusError(kParseError) on unknown keys or type mismatches.
  virtual void payload_from_json(const Json&, ScenarioSpec& spec) const;

  /// Workload-specific validation on top of the shared-section checks.
  [[nodiscard]] virtual Status validate(const ScenarioSpec&) const {
    return Status::ok();
  }

  /// Campaign hook: point every stochastic field this workload consumes
  /// at `seed` (multi-seed campaigns derive one seed per replica).
  virtual void apply_seed(ScenarioSpec&, std::uint64_t) const {}

  /// Execute the workload. The returned table must use headers();
  /// derived scalars that do not fit the row schema go through
  /// env.note(). Called only after validate() passed.
  [[nodiscard]] virtual Table run(const ScenarioSpec& spec,
                                  WorkloadEnv& env) const = 0;
};

/// Name-keyed runner collection. Use global() for the process-wide
/// instance every dispatch path consults; separate instances exist only
/// for tests.
class WorkloadRegistry {
 public:
  WorkloadRegistry() = default;
  WorkloadRegistry(const WorkloadRegistry&) = delete;
  WorkloadRegistry& operator=(const WorkloadRegistry&) = delete;

  /// Registers a runner; throws StatusError(kInvalidSpec) on an empty
  /// name or a duplicate name/payload key.
  void register_runner(std::unique_ptr<WorkloadRunner> runner);

  [[nodiscard]] bool contains(const std::string& name) const;
  [[nodiscard]] const WorkloadRunner* find(const std::string& name) const;

  /// Runner by name; throws StatusError(kInvalidSpec) for unknown names
  /// (the message carries a nearest-match suggestion + the known list).
  [[nodiscard]] const WorkloadRunner& get(const std::string& name) const;

  /// Runner whose payload_key() is `key`, or nullptr.
  [[nodiscard]] const WorkloadRunner* find_by_payload_key(
      const std::string& key) const;

  /// Registered workload names, sorted.
  [[nodiscard]] std::vector<std::string> names() const;

  [[nodiscard]] std::size_t size() const { return runners_.size(); }

  /// The process-wide registry, populated with every workload under
  /// src/sim/workloads/ on first use.
  [[nodiscard]] static WorkloadRegistry& global();

 private:
  std::vector<std::unique_ptr<WorkloadRunner>> runners_;
};

/// Column schema of a workload by name; {"-"} for unregistered names
/// (failed results still need a printable table).
[[nodiscard]] std::vector<std::string> workload_headers(
    const std::string& workload);

/// Nearest candidate by edit distance, or "" when nothing is close
/// enough to be a plausible typo. Shared by the registry error messages
/// and wi_run's unknown-name diagnostics.
[[nodiscard]] std::string closest_name(const std::string& name,
                                       const std::vector<std::string>& known);

/// The shared unknown-name diagnostic: "unknown <kind> '<name>' (did
/// you mean 'X'?); known <kind>s: a, b, ...". Used by both registries
/// and the scenario codec so the wording cannot drift.
[[nodiscard]] std::string unknown_name_message(
    const std::string& kind, const std::string& name,
    const std::vector<std::string>& known);

namespace detail {
/// Defined in the generated wi_workload_link.cpp: registers every
/// plugin under src/sim/workloads/ (deterministic, sorted file order).
void register_builtin_workloads(WorkloadRegistry& registry);
}  // namespace detail

}  // namespace wi::sim

/// Registration hook of one workload plugin file. `stem` must equal the
/// file's basename (src/sim/workloads/<stem>.cpp): the generated
/// wi_workload_link.cpp declares and calls wi::sim::workloads::
/// register_<stem>. Use inside namespace wi::sim.
#define WI_SIM_REGISTER_WORKLOAD(stem, Runner)                         \
  namespace workloads {                                                \
  void register_##stem(::wi::sim::WorkloadRegistry& registry) {        \
    registry.register_runner(std::make_unique<Runner>());              \
  }                                                                    \
  }
