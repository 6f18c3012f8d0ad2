#pragma once
/// \file result_store.hpp
/// \brief Persistent, content-keyed cache of scenario results.
///
/// Every cache entry is one JSON file keyed by FNV-1a over the
/// scenario's canonical serialized spec, an explicit seed salt and a
/// version string (pass `git describe` so a code change invalidates
/// everything it could have affected). Entries are written atomically
/// (per-writer-unique tmp file + rename) as soon as each scenario
/// finishes, so an interrupted sweep resumes per grid point:
/// re-running an unchanged sweep replays stored rows and only executes
/// the points that are missing. Only successful results are cached —
/// failed points are retried on the next run.
///
/// The store directory is safe to share between concurrent *processes*
/// (the `wi_run --shard` worker fleet): temp names are unique per
/// writer (pid + counter), so two writers racing on the same key each
/// stage their own file and the final rename is last-writer-wins
/// atomic, and the startup orphan sweep is age-gated so it cannot
/// remove another worker's in-flight write.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "wi/common/json.hpp"
#include "wi/sim/engine.hpp"
#include "wi/sim/scenario.hpp"

namespace wi::sim {

/// RunResult <-> JSON ({"scenario", "status": {code, message}, "notes",
/// "table"}); the on-disk payload of the store and of `wi_run --out`.
[[nodiscard]] Json run_result_to_json(const RunResult& result);
[[nodiscard]] RunResult run_result_from_json(const Json& json);

struct ResultStoreOptions {
  std::filesystem::path directory = "results/store";
  /// Code-version component of every key; wire `git describe` through
  /// here (wi_run does) so stale caches cannot survive a code change.
  std::string version = "unversioned";
  /// Minimum age before the startup sweep removes a `*.tmp` file. The
  /// store directory may be shared by concurrent worker processes
  /// (`wi_run --shard`), so a fresh temp file is most likely another
  /// worker's in-flight atomic write, not a crash leftover — only
  /// files older than this are swept. Zero sweeps unconditionally
  /// (single-process tools that own the directory outright).
  std::chrono::seconds orphan_ttl{600};
};

/// Content key of a (spec, version, seed) triple: 16 hex digits of
/// FNV-1a64 over the canonical spec JSON chained with the version and
/// seed. This is THE cache identity of a scenario result — the on-disk
/// store and the wi_serve in-memory hot tier key by the same value, so
/// the tiers agree about what "the same request" means.
[[nodiscard]] std::string result_content_key(const ScenarioSpec& spec,
                                             const std::string& version,
                                             std::uint64_t seed = 0);

/// Lifetime counters of one ResultStore instance (all thread-safe):
/// `hits`/`misses` count load() outcomes, `inserts` counts entries
/// actually persisted by save(), `corrupt_entries` counts loads that
/// found an unreadable entry (each also logged once per path),
/// `orphans_removed` counts stale atomic-write temp files swept on
/// open, `orphans_skipped` counts temp files the sweep left alone
/// because they were younger than `orphan_ttl` (presumed in-flight
/// writes of a concurrent worker), and `transient_write_failures`
/// counts saves that failed retryably (ENOSPC, EINTR — surfaced as
/// kUnavailable).
struct ResultStoreStats {
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t inserts = 0;
  std::size_t corrupt_entries = 0;
  std::size_t orphans_removed = 0;
  std::size_t orphans_skipped = 0;
  std::size_t transient_write_failures = 0;
};

class ResultStore {
 public:
  /// Creates the directory if needed; throws StatusError
  /// (kExecutionError) when it cannot be created. Orphaned atomic-write
  /// temp files (*.tmp left by a crash mid-save) are swept here — they
  /// can never become valid entries, only waste space — but only when
  /// older than options.orphan_ttl: a younger temp file is presumed to
  /// be a concurrent worker's in-flight write and is left alone.
  /// Removed and skipped files are counted in stats().orphans_removed
  /// / stats().orphans_skipped.
  explicit ResultStore(ResultStoreOptions options);

  /// Content key of a (spec, seed) pair under this store's version:
  /// 16 hex digits of FNV-1a64 over the canonical spec JSON.
  [[nodiscard]] std::string key(const ScenarioSpec& spec,
                                std::uint64_t seed = 0) const;

  /// Cached result, or nullopt on miss. Corrupt/mismatching entries
  /// (hash collision, truncated write survivor) count as misses — and
  /// an entry that *exists* but cannot be decoded is additionally
  /// diagnosed: a kParseError Status naming the offending file is
  /// logged to stderr once per path (and kept, see corruption_log()),
  /// so operators can find and delete bad store files instead of
  /// paying a silent recompute forever.
  [[nodiscard]] std::optional<RunResult> load(const ScenarioSpec& spec,
                                              std::uint64_t seed = 0) const;

  /// Persist a successful result (atomically); failed results are
  /// ignored so they re-run next time. Transient I/O failures (ENOSPC,
  /// EINTR) throw StatusError(kUnavailable) — retry later, the store
  /// is intact; anything else throws kExecutionError.
  void save(const ScenarioSpec& spec, const RunResult& result,
            std::uint64_t seed = 0);

  /// run_all through the cache: stored results are returned without
  /// execution, misses run on the engine's pool and are persisted the
  /// moment each finishes (interruption-safe).
  [[nodiscard]] std::vector<RunResult> run_all(
      SimEngine& engine, const std::vector<ScenarioSpec>& specs,
      std::size_t threads = 0);

  /// Lifetime cache counters of this store instance. Counting happens
  /// inside load()/save() themselves, so concurrent callers (the
  /// wi_serve worker pool) get accurate numbers without extra locking.
  [[nodiscard]] std::size_t hits() const { return hits_; }
  [[nodiscard]] std::size_t misses() const { return misses_; }
  [[nodiscard]] std::size_t inserts() const { return inserts_; }

  /// One consistent snapshot of all counters.
  [[nodiscard]] ResultStoreStats stats() const;

  /// Corrupt-entry diagnostics collected so far (one Status per
  /// distinct offending path, kParseError with the path in the
  /// message). Also written to stderr when first encountered.
  [[nodiscard]] std::vector<Status> corruption_log() const;

  [[nodiscard]] const ResultStoreOptions& options() const {
    return options_;
  }

  /// Entry path for a key (exists only after a save).
  [[nodiscard]] std::filesystem::path entry_path(
      const std::string& key) const;

 private:
  /// Count + log (once per path) an entry that exists but cannot be
  /// decoded.
  void note_corrupt_entry(const std::filesystem::path& path,
                          const std::string& detail) const;

  ResultStoreOptions options_;
  std::mutex io_mutex_;            ///< serializes writes from run_all workers
  mutable std::mutex warn_mutex_;  ///< guards the corruption log
  mutable std::atomic<std::size_t> hits_{0};
  mutable std::atomic<std::size_t> misses_{0};
  std::atomic<std::size_t> inserts_{0};
  mutable std::atomic<std::size_t> corrupt_entries_{0};
  std::atomic<std::size_t> orphans_removed_{0};
  std::atomic<std::size_t> orphans_skipped_{0};
  std::atomic<std::size_t> transient_write_failures_{0};
  mutable std::vector<Status> corruption_log_;  ///< one per distinct path
};

}  // namespace wi::sim
