#pragma once
// In-memory spans for the traced run.
//
// The benchmark wraps its own calls into each layer (scenario, battery,
// sim, exp, store) in spans; nothing inside the program is touched. A
// span has a name, a parent, an optional key (the job index for `job`
// spans) and wall-clock start/end. Spans stay in memory while the run
// executes and are written out once at the end in the Chrome-trace
// format of obs::TraceLog.
//
// Self time of a span is its duration minus the part of its interval
// that its children cover. Children of one parent may run in parallel
// (the `job` spans under `exp.run` do), so the covered part is the union
// of the child intervals, not their sum.

#include <chrono>
#include <cstddef>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

class SpanLog {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    long key = -1;
    int tid = 0;
    double t0_us = 0.0;
    double t1_us = 0.0;

    double dur_us() const { return t1_us - t0_us; }
  };

  /// Totals per span name.
  struct NameTotals {
    std::size_t count = 0;
    double total_us = 0.0;
    double self_us = 0.0;
    double max_us = 0.0;
  };

  SpanLog();

  /// Opens a span now and returns its id. Thread-safe.
  int open(std::string name, int parent, long key = -1);
  /// Closes span `id` now. Thread-safe.
  void close(int id);

  /// Count, total, self time and longest span per name.
  std::map<std::string, NameTotals> totals() const;

  /// Writes every span as a Chrome-trace 'X' event (tid = the thread
  /// that opened it; args carry the parent name and key).
  void write(const std::string& path) const;

 private:
  double now_us() const;
  /// A snapshot of every span, in open order.
  std::vector<Span> spans() const;

  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::chrono::steady_clock::time_point epoch_;
};

/// RAII span; with a null log it does nothing, so untraced runs go
/// through the same code as traced ones.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name, int parent, long key = -1)
      : log_(log),
        id_(log != nullptr ? log->open(std::move(name), parent, key) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) {
      log_->close(id_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  SpanLog* log_;
  int id_;
};

}  // namespace perfbench
