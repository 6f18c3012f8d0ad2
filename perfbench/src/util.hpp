#pragma once
/// \file util.hpp
/// \brief Clocks, host probes, order statistics and digests shared by
///        every perfbench workload.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "wi/common/table.hpp"

namespace perfbench {

/// Monotonic wall clock [s] since an arbitrary epoch.
[[nodiscard]] double wall_s();

/// User + system CPU time of this process [s].
[[nodiscard]] double cpu_s();

/// Peak resident set of this process (its own high-water mark) [MB].
[[nodiscard]] double peak_rss_mb();

/// Current resident set of this process [MB].
[[nodiscard]] double current_rss_mb();

/// Hardware threads, at least 1.
[[nodiscard]] std::size_t hardware_threads();

/// Median [ms] of five passes of a frozen loop (register arithmetic plus
/// a 32 MB dependent walk) that uses no repository code, run in a child
/// process: a host-speed diagnostic printed beside every run. It
/// normalises nothing.
[[nodiscard]] double canary_ms();

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 if empty.
[[nodiscard]] double quantile(std::vector<double> values, double q);

/// Median of `values`; 0 if empty.
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// SplitMix64 finaliser: decorrelated 64-bit stream from (seed, index).
[[nodiscard]] std::uint64_t mix(std::uint64_t seed, std::uint64_t index);

/// Uniform double in [0, 1) from mix(seed, index).
[[nodiscard]] double unit(std::uint64_t seed, std::uint64_t index);

/// Fractional part of offset + k * golden ratio: a low-discrepancy
/// sequence, so any prefix of a batch covers [0, 1) evenly and the
/// batch's cost distribution barely depends on the seed.
[[nodiscard]] double golden_sequence(double offset, std::uint64_t k);

/// Eight hex digits of FNV-1a-32 over the table's CSV rendering: the
/// identity of one op's output.
[[nodiscard]] std::string table_digest(const wi::Table& table);

}  // namespace perfbench
