#include "wi/sim/result_store.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "wi/sim/registry.hpp"
#include "wi/sim/scenario_json.hpp"

namespace wi::sim {
namespace {

namespace fs = std::filesystem;

/// Unique scratch directory per test, removed on teardown.
class ResultStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("wi_result_store_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
  }

  void TearDown() override { fs::remove_all(dir_); }

  [[nodiscard]] ResultStore make_store(const std::string& version = "v1") {
    return ResultStore({dir_, version});
  }

  [[nodiscard]] static ScenarioSpec cheap_spec() {
    return ScenarioRegistry::paper().get("table1_link_budget");
  }

  /// Four cheap specs that differ only in transmit power.
  [[nodiscard]] static std::vector<ScenarioSpec> ptx_specs() {
    std::vector<ScenarioSpec> specs;
    for (const int ptx : {0, 5, 10, 15}) {
      ScenarioSpec spec = cheap_spec();
      spec.name += "/ptx=" + std::to_string(ptx);
      spec.link.ptx_dbm = ptx;
      specs.push_back(std::move(spec));
    }
    return specs;
  }

  static void expect_same_tables(const std::vector<RunResult>& a,
                                 const std::vector<RunResult>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_TRUE(a[i].ok()) << a[i].status.to_string();
      EXPECT_EQ(a[i].scenario, b[i].scenario);
      EXPECT_EQ(a[i].table, b[i].table);
    }
  }

  fs::path dir_;
};

TEST_F(ResultStoreTest, RunResultJsonRoundTrips) {
  RunResult result;
  result.scenario = "x";
  result.status = Status(StatusCode::kUnreachableRoute, "no path 3 -> 7");
  result.notes = {"note one", "note, with comma"};
  result.table = Table({"a", "b"});
  result.table.add_row({"nan", "-inf"});
  const RunResult decoded =
      run_result_from_json(run_result_to_json(result));
  EXPECT_EQ(decoded.scenario, result.scenario);
  EXPECT_EQ(decoded.status, result.status);
  EXPECT_EQ(decoded.notes, result.notes);
  EXPECT_EQ(decoded.table, result.table);
}

TEST_F(ResultStoreTest, MissThenHit) {
  ResultStore store = make_store();
  SimEngine engine;
  const ScenarioSpec spec = cheap_spec();
  // Counting happens at load()/save() level, so this probe is a miss.
  EXPECT_FALSE(store.load(spec).has_value());
  EXPECT_EQ(store.misses(), 1u);

  const auto first = store.run_all(engine, {spec});
  ASSERT_EQ(first.size(), 1u);
  ASSERT_TRUE(first[0].ok());
  EXPECT_EQ(store.hits(), 0u);
  EXPECT_EQ(store.misses(), 2u);
  EXPECT_EQ(store.inserts(), 1u);

  const auto second = store.run_all(engine, {spec});
  EXPECT_EQ(store.hits(), 1u);
  EXPECT_EQ(store.misses(), 2u);
  EXPECT_EQ(store.inserts(), 1u);
  EXPECT_EQ(second[0].table, first[0].table);
  EXPECT_EQ(second[0].notes, first[0].notes);

  const ResultStoreStats stats = store.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.inserts, 1u);
  EXPECT_EQ(stats.corrupt_entries, 0u);
}

TEST_F(ResultStoreTest, KeyDependsOnSpecSeedAndVersion) {
  ResultStore store = make_store();
  const ScenarioSpec spec = cheap_spec();
  ScenarioSpec changed = spec;
  changed.link.ptx_dbm += 1.0;
  EXPECT_NE(store.key(spec), store.key(changed));
  EXPECT_NE(store.key(spec, 0), store.key(spec, 1));
  ResultStore other = make_store("v2");
  EXPECT_NE(store.key(spec), other.key(spec));
}

TEST_F(ResultStoreTest, VersionChangeInvalidates) {
  SimEngine engine;
  const ScenarioSpec spec = cheap_spec();
  {
    ResultStore store = make_store("v1");
    (void)store.run_all(engine, {spec});
  }
  ResultStore upgraded = make_store("v2");
  EXPECT_FALSE(upgraded.load(spec).has_value());
}

TEST_F(ResultStoreTest, FailedResultsAreNotCached) {
  ResultStore store = make_store();
  SimEngine engine;
  ScenarioSpec broken = cheap_spec();
  broken.geometry.boards = 0;  // fails validation at run time
  const auto results = store.run_all(engine, {broken});
  EXPECT_FALSE(results[0].ok());
  EXPECT_FALSE(store.load(broken).has_value());
}

TEST_F(ResultStoreTest, GarbageEntriesAreMissesNotCrashes) {
  ResultStore store = make_store();
  SimEngine engine;
  const ScenarioSpec spec = cheap_spec();
  const auto path = store.entry_path(store.key(spec));

  const auto write_entry = [&](const std::string& payload) {
    std::ofstream out(path, std::ios::trunc);
    out << payload;
  };

  // Binary junk, empty file, wrong JSON shape: all must be misses.
  write_entry(std::string("\x00\xff\x7f garbage \x01", 12));
  EXPECT_NO_THROW(EXPECT_FALSE(store.load(spec).has_value()));
  write_entry("");
  EXPECT_NO_THROW(EXPECT_FALSE(store.load(spec).has_value()));
  write_entry("[1, 2, 3]");
  EXPECT_NO_THROW(EXPECT_FALSE(store.load(spec).has_value()));
  write_entry(R"({"format": 42})");
  EXPECT_NO_THROW(EXPECT_FALSE(store.load(spec).has_value()));

  // Structurally valid entry whose result table is corrupt. An empty
  // headers array makes the Table constructor throw std::invalid_argument
  // (not StatusError) — the regression this test pins down: load() must
  // treat it as a miss and recompute, not propagate the exception.
  const auto corrupt_entry = [&](Json table) {
    Json result = Json::object();
    result.set("scenario", Json(spec.name));
    Json status = Json::object();
    status.set("code", Json("ok"));
    status.set("message", Json(""));
    result.set("status", std::move(status));
    result.set("notes", Json::array());
    result.set("table", std::move(table));
    Json entry = Json::object();
    entry.set("format", Json("wi-result-v1"));
    entry.set("key", Json(store.key(spec)));
    entry.set("version", Json("v1"));
    entry.set("seed", Json(0.0));
    entry.set("spec", scenario_to_json(spec));
    entry.set("result", std::move(result));
    write_entry(entry.dump(2));
  };
  Json empty_headers = Json::object();
  empty_headers.set("headers", Json::array());
  empty_headers.set("rows", Json::array());
  corrupt_entry(std::move(empty_headers));
  EXPECT_NO_THROW(EXPECT_FALSE(store.load(spec).has_value()));

  Json ragged = Json::object();
  {
    Json headers = Json::array();
    headers.push_back(Json("a"));
    headers.push_back(Json("b"));
    ragged.set("headers", std::move(headers));
    Json rows = Json::array();
    Json short_row = Json::array();
    short_row.push_back(Json("only one cell"));
    rows.push_back(std::move(short_row));
    ragged.set("rows", std::move(rows));
  }
  corrupt_entry(std::move(ragged));
  EXPECT_NO_THROW(EXPECT_FALSE(store.load(spec).has_value()));

  // And a full run through the store recomputes and repairs the entry.
  const auto results = store.run_all(engine, {spec});
  ASSERT_TRUE(results[0].ok());
  EXPECT_TRUE(store.load(spec).has_value());
}

TEST_F(ResultStoreTest, CorruptEntryIsAMiss) {
  ResultStore store = make_store();
  SimEngine engine;
  const ScenarioSpec spec = cheap_spec();
  (void)store.run_all(engine, {spec});
  {
    std::ofstream out(store.entry_path(store.key(spec)), std::ios::trunc);
    out << "{ truncated";
  }
  EXPECT_FALSE(store.load(spec).has_value());
  // And the next cached run repairs the entry.
  (void)store.run_all(engine, {spec});
  EXPECT_TRUE(store.load(spec).has_value());
}

TEST_F(ResultStoreTest, CorruptEntryIsDiagnosedOncePerPath) {
  ResultStore store = make_store();
  SimEngine engine;
  const ScenarioSpec spec = cheap_spec();
  (void)store.run_all(engine, {spec});
  const auto path = store.entry_path(store.key(spec));
  {
    std::ofstream out(path, std::ios::trunc);
    out << "{ truncated garbage";
  }
  ::testing::internal::CaptureStderr();
  EXPECT_FALSE(store.load(spec).has_value());
  EXPECT_FALSE(store.load(spec).has_value());
  EXPECT_FALSE(store.load(spec).has_value());
  const std::string log = ::testing::internal::GetCapturedStderr();

  // The miss surfaces, and the diagnostic names the offending file —
  // once, not per load.
  EXPECT_EQ(store.stats().corrupt_entries, 3u);
  const auto warnings = store.corruption_log();
  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_EQ(warnings[0].code(), StatusCode::kParseError);
  EXPECT_NE(warnings[0].message().find(path.string()), std::string::npos);
  EXPECT_NE(log.find(path.string()), std::string::npos);
  EXPECT_EQ(log.find(path.string()),
            log.rfind(path.string()));  // exactly one stderr line

  // An unreadable-but-absent entry is NOT a corruption: plain misses
  // never pollute the log.
  ScenarioSpec other = cheap_spec();
  other.link.ptx_dbm += 3.0;
  EXPECT_FALSE(store.load(other).has_value());
  EXPECT_EQ(store.corruption_log().size(), 1u);
}

TEST_F(ResultStoreTest, CountersTrackResumePaths) {
  // Mirrors the sweep-resume scenario at counter level: 2 pre-seeded
  // entries + 2 fresh specs = 2 hits, 2 misses, 2 inserts on resume.
  const std::vector<ScenarioSpec> specs = ptx_specs();
  {
    ResultStore store = make_store();
    SimEngine engine;
    store.save(specs[1], engine.run(specs[1]));
    store.save(specs[3], engine.run(specs[3]));
    EXPECT_EQ(store.inserts(), 2u);
  }
  ResultStore store = make_store();
  SimEngine engine;
  for (const RunResult& r : store.run_all(engine, specs)) {
    EXPECT_TRUE(r.ok()) << r.status.to_string();
  }
  const ResultStoreStats stats = store.stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.inserts, 2u);
}

TEST_F(ResultStoreTest, SweepResumesPerRowAfterInterruption) {
  const std::vector<ScenarioSpec> specs = ptx_specs();
  // "Interrupted" first attempt: only two specs got persisted.
  {
    ResultStore store = make_store();
    SimEngine engine;
    store.save(specs[0], engine.run(specs[0]));
    store.save(specs[2], engine.run(specs[2]));
  }
  // Resume: only the two missing specs execute.
  ResultStore store = make_store();
  SimEngine engine;
  const std::vector<RunResult> resumed = store.run_all(engine, specs);
  EXPECT_EQ(store.hits(), 2u);
  EXPECT_EQ(store.misses(), 2u);
  for (const RunResult& r : resumed) {
    EXPECT_EQ(r.table.rows(), 9u);  // 9 budget rows per spec
  }
  // The resumed results are identical to an uncached run.
  SimEngine fresh_engine;
  expect_same_tables(resumed, fresh_engine.run_all(specs));
}

TEST_F(ResultStoreTest, SecondSweepRunIsAllHits) {
  const std::vector<ScenarioSpec> specs = ptx_specs();
  ResultStore store = make_store();
  SimEngine engine;
  const std::vector<RunResult> first = store.run_all(engine, specs);
  EXPECT_EQ(store.misses(), 4u);
  const std::vector<RunResult> second = store.run_all(engine, specs);
  EXPECT_EQ(store.hits(), 4u);
  EXPECT_EQ(store.misses(), 4u);
  expect_same_tables(second, first);
}

}  // namespace
}  // namespace wi::sim
