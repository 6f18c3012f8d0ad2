#include "util.hpp"

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

#include "wi/common/table_io.hpp"

namespace perfbench {

double wall_s() {
  using Clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

double cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss in KB
}

double current_rss_mb() {
  std::ifstream statm("/proc/self/statm");
  double size_pages = 0.0;
  double resident_pages = 0.0;
  statm >> size_pages >> resident_pages;
  return resident_pages * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

std::size_t hardware_threads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

namespace {

// Frozen: changing this routine breaks comparability with every
// recorded canary figure. A register-only loop plus a dependent walk
// over 32 MB, so both compute and cache/memory slow periods show.
double canary_passes_ms() {
  constexpr int kPasses = 5;
  constexpr std::uint64_t kIterations = 4'000'000;
  constexpr std::uint32_t kSlots = 8u << 20;  // 32 MB of uint32_t
  constexpr std::uint32_t kSteps = 400'000;
  static const std::vector<std::uint32_t> ring = [] {
    // Sattolo's shuffle: one cycle through every slot.
    std::vector<std::uint32_t> next(kSlots);
    for (std::uint32_t i = 0; i < kSlots; ++i) next[i] = i;
    std::uint64_t x = 88172645463325252ull;
    for (std::uint32_t i = kSlots - 1; i > 0; --i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      std::swap(next[i], next[x % i]);
    }
    return next;
  }();
  std::vector<double> passes;
  volatile double sink = 0.0;
  for (int pass = 0; pass < kPasses; ++pass) {
    const double t0 = wall_s();
    std::uint64_t x = 0x9E3779B97F4A7C15ull + static_cast<std::uint64_t>(pass);
    double acc = 0.0;
    for (std::uint64_t i = 0; i < kIterations; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      acc = acc * 0.999999 + static_cast<double>(x >> 40) * 1e-7;
    }
    std::uint32_t slot = static_cast<std::uint32_t>(pass);
    for (std::uint32_t i = 0; i < kSteps; ++i) slot = ring[slot];
    sink = acc + slot;
    passes.push_back((wall_s() - t0) * 1e3);
  }
  (void)sink;
  return median(passes);
}

}  // namespace

double canary_ms() {
  // In a child process, so its 32 MB never reach this process's peak RSS.
  int fds[2];
  if (pipe(fds) != 0) return 0.0;
  const pid_t child = fork();
  if (child == 0) {
    close(fds[0]);
    const double ms = canary_passes_ms();
    const ssize_t written = write(fds[1], &ms, sizeof ms);
    _exit(written == sizeof ms ? 0 : 1);
  }
  close(fds[1]);
  double ms = 0.0;
  if (child < 0 || read(fds[0], &ms, sizeof ms) != sizeof ms) ms = 0.0;
  close(fds[0]);
  if (child > 0) waitpid(child, nullptr, 0);
  return ms;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

std::uint64_t mix(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + index + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double unit(std::uint64_t seed, std::uint64_t index) {
  return static_cast<double>(mix(seed, index) >> 11) * 0x1.0p-53;
}

double golden_sequence(double offset, std::uint64_t k) {
  constexpr double kPhi = 0.6180339887498949;
  const double x = offset + static_cast<double>(k) * kPhi;
  return x - std::floor(x);
}

std::string table_digest(const wi::Table& table) {
  std::uint32_t hash = 2166136261u;
  for (const unsigned char c : wi::to_csv(table)) {
    hash = (hash ^ c) * 16777619u;
  }
  char text[9];
  std::snprintf(text, sizeof text, "%08x", hash);
  return text;
}

}  // namespace perfbench
