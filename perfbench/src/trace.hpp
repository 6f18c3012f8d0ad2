#pragma once
/// \file trace.hpp
/// \brief In-memory span recorder of the traced run.
///
/// A span has a name, start, end, parent span and op id. Spans are kept
/// in memory and written out once at the end, as Chrome trace-event JSON
/// (opens in Perfetto / chrome://tracing) plus a flat CSV twin. Self
/// time is a span's duration minus the part its child spans cover.
/// Thread-safe: the serve workload records spans from its connection
/// threads; each thread keeps its own parent stack.

#include <cstddef>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;
  int parent = -1;  ///< index into spans(), -1 = root
  int op = -1;      ///< op id (-1 = not inside an op)
  int thread = 0;
};

/// Per-name aggregate over all spans of that name.
struct SpanTotals {
  std::size_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;

  [[nodiscard]] double mean_ms() const {
    return count == 0 ? 0.0 : total_ms / static_cast<double>(count);
  }
};

class Tracer {
 public:
  /// A disabled tracer records nothing: its spans cost one branch, so
  /// the same code can run traced and untraced.
  explicit Tracer(bool enabled = true) : enabled_(enabled) {}

  /// RAII span: closes when destroyed.
  class Scope {
   public:
    Scope(Tracer* tracer, int index) : tracer_(tracer), index_(index) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope();

   private:
    Tracer* tracer_;
    int index_;
  };

  /// Open a span; the enclosing open span of this thread is its parent.
  [[nodiscard]] Scope span(std::string name, int op = -1);

  /// Aggregates by span name (closed spans only).
  [[nodiscard]] std::map<std::string, SpanTotals> totals() const;

  /// Smallest share of a `name` span's duration that its child spans
  /// cover (1 when there is no such span).
  [[nodiscard]] double min_child_coverage(const std::string& name) const;

  /// Write `<stem>.json` (Chrome trace events) and `<stem>.csv`.
  void write(const std::filesystem::path& stem) const;

 private:
  void close(int index);
  [[nodiscard]] std::vector<double> child_ms() const;

  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  bool enabled_;
  double epoch_s_ = -1.0;
  int threads_ = 0;
};

}  // namespace perfbench
