#include "wi/sim/result_store.hpp"

#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <charconv>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <system_error>
#include <utility>

#include "wi/common/table_io.hpp"
#include "wi/sim/scenario_json.hpp"

namespace wi::sim {

namespace {

constexpr const char* kFormat = "wi-result-v1";

[[nodiscard]] std::uint64_t fnv1a64(std::string_view data,
                                    std::uint64_t hash = 0xcbf29ce484222325ULL) {
  for (const char c : data) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

[[nodiscard]] std::string to_hex16(std::uint64_t value) {
  char buffer[17] = {};
  for (int i = 15; i >= 0; --i) {
    buffer[i] = "0123456789abcdef"[value & 0xF];
    value >>= 4;
  }
  return buffer;
}

[[nodiscard]] StatusCode parse_status_code(const std::string& name) {
  if (const auto code = status_code_from_name(name)) return *code;
  throw StatusError(Status(StatusCode::kParseError,
                           "unknown status code '" + name + "'"));
}

}  // namespace

std::string result_content_key(const ScenarioSpec& spec,
                               const std::string& version,
                               std::uint64_t seed) {
  // Chain spec, version and seed through one FNV stream; '\x1f'
  // separators keep field boundaries unambiguous.
  std::uint64_t hash = fnv1a64(scenario_to_string(spec));
  hash = fnv1a64("\x1f", hash);
  hash = fnv1a64(version, hash);
  hash = fnv1a64("\x1f", hash);
  hash = fnv1a64(std::to_string(seed), hash);
  return to_hex16(hash);
}

Json run_result_to_json(const RunResult& result) {
  Json json = Json::object();
  json.set("scenario", Json(result.scenario));
  Json status = Json::object();
  status.set("code", Json(status_code_name(result.status.code())));
  status.set("message", Json(result.status.message()));
  json.set("status", std::move(status));
  Json notes = Json::array();
  for (const auto& note : result.notes) notes.push_back(Json(note));
  json.set("notes", std::move(notes));
  json.set("table", table_to_json(result.table));
  return json;
}

RunResult run_result_from_json(const Json& json) {
  RunResult result;
  result.scenario = json.at("scenario").as_string();
  const Json& status = json.at("status");
  result.status = Status(parse_status_code(status.at("code").as_string()),
                         status.at("message").as_string());
  for (const auto& note : json.at("notes").as_array()) {
    result.notes.push_back(note.as_string());
  }
  result.table = table_from_json(json.at("table"));
  return result;
}

ResultStore::ResultStore(ResultStoreOptions options)
    : options_(std::move(options)) {
  std::error_code ec;
  std::filesystem::create_directories(options_.directory, ec);
  if (ec) {
    throw StatusError(Status(
        StatusCode::kExecutionError,
        "result store: cannot create '" + options_.directory.string() +
            "': " + ec.message()));
  }
  // Sweep orphaned atomic-write temp files: a crash between the tmp
  // write and the rename leaves "<key>.json.<writer>.tmp" behind,
  // which can never become a valid entry. The sweep is age-gated:
  // with the directory shared by concurrent worker processes, a young
  // temp file is almost certainly another worker's *in-flight* write,
  // and deleting it would drop that worker's result mid-save — only
  // files older than orphan_ttl (crash leftovers) are removed.
  // Removal/stat failures are ignored (another process may be
  // sweeping, or the writer may have just renamed the file away).
  const auto now = std::filesystem::file_time_type::clock::now();
  for (std::filesystem::directory_iterator it(options_.directory, ec), end;
       !ec && it != end; it.increment(ec)) {
    const std::filesystem::path& path = it->path();
    if (path.extension() != ".tmp") continue;
    if (options_.orphan_ttl.count() > 0) {
      std::error_code stat_ec;
      const auto mtime = std::filesystem::last_write_time(path, stat_ec);
      if (stat_ec) continue;  // vanished mid-sweep: a writer finished
      if (now - mtime < options_.orphan_ttl) {
        ++orphans_skipped_;
        continue;
      }
    }
    std::error_code remove_ec;
    if (std::filesystem::remove(path, remove_ec) && !remove_ec) {
      ++orphans_removed_;
      std::cerr << "result store: removed orphaned temp file '"
                << path.string() << "'\n";
    }
  }
}

std::string ResultStore::key(const ScenarioSpec& spec,
                             std::uint64_t seed) const {
  return result_content_key(spec, options_.version, seed);
}

std::filesystem::path ResultStore::entry_path(const std::string& key) const {
  return options_.directory / (key + ".json");
}

std::optional<RunResult> ResultStore::load(const ScenarioSpec& spec,
                                           std::uint64_t seed) const {
  const std::filesystem::path path = entry_path(key(spec, seed));
  std::ifstream in(path);
  if (!in) {
    ++misses_;
    return std::nullopt;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  try {
    const Json json = Json::parse(buffer.str());
    if (json.at("format").as_string() != kFormat) {
      ++misses_;
      return std::nullopt;
    }
    if (json.at("version").as_string() != options_.version) {
      ++misses_;
      return std::nullopt;
    }
    // Collision/corruption guard: the stored spec must be *identical*,
    // not merely hash-equal.
    if (json.at("spec").dump() != scenario_to_json(spec).dump()) {
      ++misses_;
      return std::nullopt;
    }
    RunResult result = run_result_from_json(json.at("result"));
    ++hits_;
    return result;
  } catch (const std::exception& e) {
    // A truncated or hand-edited entry is a miss, not a fatal error.
    // Catching std::exception (not just StatusError) matters: a corrupt
    // entry whose table rows are ragged surfaces from Table::add_row as
    // std::invalid_argument, and that must recompute, not crash. But
    // the operator still needs to hear about it — once per path, as a
    // structured Status naming the offending file.
    note_corrupt_entry(path, e.what());
    ++misses_;
    return std::nullopt;
  }
}

void ResultStore::note_corrupt_entry(const std::filesystem::path& path,
                                     const std::string& detail) const {
  ++corrupt_entries_;
  std::string quoted_path = "'";
  quoted_path += path.string();
  quoted_path += "'";
  std::string message = "result store: corrupt entry ";
  message += quoted_path;
  message += " treated as a miss (delete or regenerate it): ";
  message += detail;
  const Status status(StatusCode::kParseError, std::move(message));
  std::lock_guard<std::mutex> lock(warn_mutex_);
  for (const Status& seen : corruption_log_) {
    // Warn once per path; a hot spec would otherwise spam every load.
    if (seen.message().find(quoted_path) != std::string::npos) {
      return;
    }
  }
  corruption_log_.push_back(status);
  std::cerr << status.to_string() << "\n";
}

ResultStoreStats ResultStore::stats() const {
  ResultStoreStats stats;
  stats.hits = hits_.load();
  stats.misses = misses_.load();
  stats.inserts = inserts_.load();
  stats.corrupt_entries = corrupt_entries_.load();
  stats.orphans_removed = orphans_removed_.load();
  stats.orphans_skipped = orphans_skipped_.load();
  stats.transient_write_failures = transient_write_failures_.load();
  return stats;
}

std::vector<Status> ResultStore::corruption_log() const {
  std::lock_guard<std::mutex> lock(warn_mutex_);
  return corruption_log_;
}

void ResultStore::save(const ScenarioSpec& spec, const RunResult& result,
                       std::uint64_t seed) {
  if (!result.ok()) return;  // failures re-run next time
  const std::string entry_key = key(spec, seed);
  Json json = Json::object();
  json.set("format", Json(kFormat));
  json.set("key", Json(entry_key));
  json.set("version", Json(options_.version));
  json.set("seed", Json(static_cast<double>(seed)));
  json.set("spec", scenario_to_json(spec));
  json.set("result", run_result_to_json(result));
  const std::string payload = json.dump(2) + "\n";

  // The temp name must be unique per writer: with a shared store
  // directory, two processes computing the same (key, seed) would
  // otherwise stage into the *same* "<key>.json.tmp" — writer B
  // truncates A's half-written file, A renames B's torso into place,
  // and a corrupt entry lands under the final name. A pid + per-process
  // counter suffix gives every in-flight write its own staging file;
  // the final rename stays last-writer-wins atomic (same directory),
  // and since content keys are deterministic both writers rename
  // identical bytes anyway.
  static std::atomic<std::uint64_t> tmp_counter{0};
  const std::filesystem::path path = entry_path(entry_key);
  const std::filesystem::path tmp =
      path.string() + "." + std::to_string(::getpid()) + "-" +
      std::to_string(tmp_counter.fetch_add(1)) + ".tmp";
  std::lock_guard<std::mutex> lock(io_mutex_);
  {
    errno = 0;
    std::ofstream out(tmp, std::ios::trunc);
    out << payload;
    out.flush();
    if (!out) {
      const int err = errno;
      // A half-written temp file must not linger as an orphan.
      std::error_code cleanup_ec;
      std::filesystem::remove(tmp, cleanup_ec);
      if (err == ENOSPC || err == EINTR || err == EAGAIN ||
          err == EDQUOT) {
        ++transient_write_failures_;
        throw StatusError(Status(
            StatusCode::kUnavailable,
            "result store: transient write failure for '" + tmp.string() +
                "' (" + std::strerror(err) + ") — retry later"));
      }
      throw StatusError(Status(StatusCode::kExecutionError,
                               "result store: write failed for '" +
                                   tmp.string() + "'"));
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::error_code cleanup_ec;
    std::filesystem::remove(tmp, cleanup_ec);
    if (ec == std::errc::no_space_on_device ||
        ec == std::errc::interrupted ||
        ec == std::errc::resource_unavailable_try_again) {
      ++transient_write_failures_;
      throw StatusError(Status(
          StatusCode::kUnavailable,
          "result store: transient rename failure for '" + path.string() +
              "' (" + ec.message() + ") — retry later"));
    }
    throw StatusError(Status(StatusCode::kExecutionError,
                             "result store: rename failed for '" +
                                 path.string() + "': " + ec.message()));
  }
  ++inserts_;
}

std::vector<RunResult> ResultStore::run_all(
    SimEngine& engine, const std::vector<ScenarioSpec>& specs,
    std::size_t threads) {
  std::vector<RunResult> results(specs.size());
  std::vector<std::size_t> miss_indices;
  std::vector<ScenarioSpec> miss_specs;
  // load() itself counts the hit/miss split.
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (auto cached = load(specs[i])) {
      results[i] = std::move(*cached);
    } else {
      miss_indices.push_back(i);
      miss_specs.push_back(specs[i]);
    }
  }
  if (miss_specs.empty()) return results;
  // Persist every miss the moment it completes (the callback runs on
  // the worker threads; save() serializes the file I/O), so an
  // interrupted run leaves all finished points behind. A failing save
  // (disk full, directory removed) must not take down the run — the
  // result still exists in memory; it just won't be cached. An
  // exception escaping a worker thread would call std::terminate.
  const std::vector<RunResult> fresh = engine.run_all(
      miss_specs, threads,
      [&](std::size_t miss_index, const RunResult& result) {
        try {
          save(miss_specs[miss_index], result);
        } catch (const std::exception& e) {
          std::lock_guard<std::mutex> lock(warn_mutex_);
          std::cerr << "result store: dropping cache entry for '"
                    << result.scenario << "': " << e.what() << "\n";
        }
      });
  for (std::size_t m = 0; m < miss_indices.size(); ++m) {
    results[miss_indices[m]] = fresh[m];
  }
  return results;
}

}  // namespace wi::sim
