#include "wi/sim/engine.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <ostream>
#include <thread>
#include <utility>

#include "wi/sim/workload.hpp"

namespace wi::sim {

namespace detail {

/// Thread budget of one top-level engine call (run or run_all), shared
/// by every WorkloadEnv::parallel_for issued under it. No more than
/// `budget` threads ever exist for the call: its run_all workers (or
/// the caller), plus the helpers parallel_for spawns from what is left.
/// run_all workers without a scenario left help with queued tasks until
/// the last scenario finishes. A budget of 1 runs every task inline.
class FanOut {
 public:
  FanOut(std::size_t budget, std::size_t workers)
      : inline_(budget <= 1),
        spare_(budget > workers ? budget - workers : 0),
        open_workers_(workers) {}
  FanOut(const FanOut&) = delete;
  FanOut& operator=(const FanOut&) = delete;

  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& task);

  /// Called by a run_all worker that has run out of scenarios: runs
  /// queued tasks until every worker is out of scenarios.
  void help_until_workers_done();

 private:
  /// One parallel_for call; lives on its caller's stack.
  struct Job {
    const std::function<void(std::size_t)>* task = nullptr;
    std::size_t count = 0;
    std::size_t next = 0;      ///< next index to claim
    std::size_t finished = 0;  ///< claimed tasks that have returned
    bool queued = true;        ///< in jobs_: tasks left to claim
    std::size_t error_index = 0;
    std::exception_ptr error;  ///< of the lowest failing index
  };

  // All three run with mutex_ held.
  bool claim(Job& job, std::size_t& index);
  void run_task(std::unique_lock<std::mutex>& lock, Job& job,
                std::size_t index);
  void dequeue(Job& job);

  const bool inline_;
  std::mutex mutex_;
  std::condition_variable changed_;
  std::size_t spare_;         ///< threads parallel_for may still spawn
  std::size_t open_workers_;  ///< run_all workers still on scenarios
  std::vector<Job*> jobs_;    ///< jobs with tasks to claim, oldest first
};

void FanOut::parallel_for(std::size_t count,
                          const std::function<void(std::size_t)>& task) {
  if (inline_ || count <= 1) {
    for (std::size_t i = 0; i < count; ++i) task(i);
    return;
  }
  Job job;
  job.task = &task;
  job.count = count;
  std::unique_lock lock(mutex_);
  jobs_.push_back(&job);
  const std::size_t spawn = std::min(spare_, count - 1);
  spare_ -= spawn;
  changed_.notify_all();  // idle run_all workers may take tasks
  lock.unlock();

  const auto helper = [this, &job] {
    std::unique_lock helper_lock(mutex_);
    std::size_t index = 0;
    while (claim(job, index)) run_task(helper_lock, job, index);
    ++spare_;
  };
  // Declared after `job`, so on every path the helpers are joined
  // before the job they work on goes away.
  std::vector<std::jthread> helpers;
  std::size_t spawned = 0;
  try {
    helpers.reserve(spawn);
    for (; spawned < spawn; ++spawned) helpers.emplace_back(helper);
  } catch (...) {
    // No thread to spare: give the slots back and run with fewer.
    lock.lock();
    spare_ += spawn - spawned;
    lock.unlock();
  }

  lock.lock();
  std::size_t index = 0;
  while (claim(job, index)) run_task(lock, job, index);
  changed_.wait(lock, [&] { return !job.queued && job.finished == job.next; });
  lock.unlock();
  helpers.clear();  // joins
  if (job.error) std::rethrow_exception(job.error);
}

void FanOut::help_until_workers_done() {
  std::unique_lock lock(mutex_);
  --open_workers_;
  changed_.notify_all();
  while (true) {
    changed_.wait(lock, [&] { return !jobs_.empty() || open_workers_ == 0; });
    if (jobs_.empty()) return;
    // A queued job always has a task to claim; claim() may dequeue it,
    // so keep the reference rather than re-reading the queue.
    Job& job = *jobs_.front();
    std::size_t index = 0;
    claim(job, index);
    run_task(lock, job, index);
  }
}

bool FanOut::claim(Job& job, std::size_t& index) {
  if (!job.queued) return false;
  index = job.next++;
  if (job.next == job.count) dequeue(job);
  return true;
}

void FanOut::run_task(std::unique_lock<std::mutex>& lock, Job& job,
                      std::size_t index) {
  lock.unlock();
  std::exception_ptr error;
  try {
    (*job.task)(index);
  } catch (...) {
    // Never let a task's exception end a helper thread: it is handed to
    // the parallel_for caller.
    error = std::current_exception();
  }
  lock.lock();
  if (error) {
    if (!job.error || index < job.error_index) {
      job.error = error;
      job.error_index = index;
    }
    // Tasks are claimed in index order, so every index below this one
    // is already claimed: claiming no more keeps the lowest failure.
    if (job.queued) dequeue(job);
  }
  ++job.finished;
  changed_.notify_all();
}

void FanOut::dequeue(Job& job) {
  jobs_.erase(std::find(jobs_.begin(), jobs_.end(), &job));
  job.queued = false;
}

}  // namespace detail

void WorkloadEnv::parallel_for(
    std::size_t count, const std::function<void(std::size_t)>& task) {
  if (fan_out_ == nullptr) {
    for (std::size_t i = 0; i < count; ++i) task(i);
    return;
  }
  fan_out_->parallel_for(count, task);
}

SimEngine::SimEngine(EngineOptions options) : options_(options) {
  if (options_.serial_phy_builds) phy_cache_.set_build_threads(1);
}

std::size_t SimEngine::resolve_threads(std::size_t requested) const {
  std::size_t threads = requested != 0 ? requested : options_.threads;
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
  }
  return threads;
}

RunResult SimEngine::run(const ScenarioSpec& spec) {
  detail::FanOut fan_out(
      options_.serial_phy_builds ? 1 : resolve_threads(0), 1);
  return run_with(spec, fan_out);
}

RunResult SimEngine::run_with(const ScenarioSpec& spec,
                              detail::FanOut& fan_out) {
  RunResult result;
  result.scenario = spec.name;
  try {
    result.table = Table(workload_headers(spec.workload));
    result.status = spec.validate();
    if (result.status.is_ok()) {
      const WorkloadRunner& runner =
          WorkloadRegistry::global().get(spec.workload);
      WorkloadEnv env(phy_cache_, &fan_out);
      result.table = runner.run(spec, env);
      result.notes = std::move(env.notes());
    }
  } catch (const StatusError& e) {
    result.status = e.status();
  } catch (const std::exception& e) {
    result.status = Status(StatusCode::kExecutionError, e.what());
  } catch (...) {
    // Catch-all barrier: a stray exception must fail this scenario,
    // never terminate a parallel worker thread.
    result.status =
        Status(StatusCode::kExecutionError, "unknown exception");
  }
  if (!result.status.is_ok()) {
    // Failed runs report an empty table under the workload's schema.
    result.table = Table(workload_headers(spec.workload));
  }
  return result;
}

std::vector<RunResult> SimEngine::run_all(
    const std::vector<ScenarioSpec>& specs, std::size_t threads,
    const ResultCallback& on_result) {
  std::vector<RunResult> results(specs.size());
  if (specs.empty()) return results;
  const std::size_t budget = resolve_threads(threads);
  const std::size_t workers = std::min(budget, specs.size());
  detail::FanOut fan_out(options_.serial_phy_builds ? 1 : budget, workers);
  if (workers <= 1) {
    for (std::size_t i = 0; i < specs.size(); ++i) {
      results[i] = run_with(specs[i], fan_out);
      if (on_result) on_result(i, results[i]);
    }
    return results;
  }
  // Scenario-level parallelism is already saturating the machine:
  // curve builds triggered inside workers must stay serial or each
  // cache miss would spawn a nested PhyAbstraction thread pool.
  const std::size_t build_threads_before = phy_cache_.build_threads();
  phy_cache_.set_build_threads(1);
  // Work stealing via a shared atomic cursor: idle workers pull the
  // next pending scenario, so long scenarios never leave threads idle.
  // Once none is left they help with the running ones' fan-outs.
  std::atomic<std::size_t> next{0};
  auto worker = [&]() {
    while (true) {
      const std::size_t i = next.fetch_add(1);
      if (i >= specs.size()) break;
      results[i] = run_with(specs[i], fan_out);
      if (on_result) on_result(i, results[i]);
    }
    fan_out.help_until_workers_done();
  };
  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  for (std::size_t t = 0; t + 1 < workers; ++t) pool.emplace_back(worker);
  worker();
  for (auto& thread : pool) thread.join();
  // Restore the caller's setting (a serial_phy_builds engine stays
  // pinned; otherwise later single-scenario runs parallelize again).
  phy_cache_.set_build_threads(build_threads_before);
  return results;
}

void print_result(std::ostream& os, const RunResult& result) {
  os << "# scenario: " << result.scenario << "\n";
  if (!result.ok()) os << "# status: " << result.status.to_string() << "\n";
  for (const auto& note : result.notes) os << "# " << note << "\n";
  result.table.print(os);
}

}  // namespace wi::sim
