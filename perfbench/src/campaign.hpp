#pragma once
// One campaign rep of a workload: set-up, every stage through
// exp::Runner (3 workers plus the store's writer thread — a closed loop:
// a worker claims its next job only when the previous one is done), the
// CSV sink, and the per-job output checks.

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {

struct RepOptions {
  std::string workload;
  WorkloadOptions workload_options;
  int workers = 3;
  /// Parent of the rep's store directories and sink files.
  std::filesystem::path work_dir;
  /// Stop at the first job: the rep measures set-up only.
  bool setup_only = false;
  /// Traced reps: spans and per-job counters, then a second run of every
  /// stored stage against its store (all hits), which must serve every
  /// job and reproduce the result.
  SpanLog* log = nullptr;
};

struct RepResult {
  /// Set-up start to the end of the sink.
  double wall_s = 0.0;
  /// Set-up start to the moment the first job began.
  double setup_s = 0.0;
  /// Time inside each job function that succeeded, in job order.
  std::vector<double> job_ms;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  /// The first few failed checks (job outputs, the store resume).
  std::vector<std::string> failures;
  /// Every stage's result CSV, concatenated: the digest input.
  std::string csv;
  std::vector<Fidelity> fidelity;

  // Traced reps only.
  /// Job-order fold of the per-job counters (obs::fill names).
  bas::obs::Metrics counters;
  /// Bytes on disk in the store directories after the timed run.
  std::uintmax_t store_bytes = 0;
  /// Jobs the resume run served from the store.
  std::size_t store_rows = 0;
};

RepResult run_rep(const RepOptions& options);

/// FNV-1a 64 of `text`, as 16 hex digits.
std::string digest(const std::string& text);

}  // namespace perfbench
