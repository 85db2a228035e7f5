#include "exp/runner.hpp"

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "exp/progress.hpp"
#include "obs/trace_log.hpp"
#include "store/store.hpp"
#include "util/cli.hpp"

namespace bas::exp {

namespace {

/// Campaign-trace args of job `index`, plus any extra JSON members.
std::string job_args(std::size_t index, const char* extra = "") {
  return "{\"job\": " + std::to_string(index) + extra + "}";
}

}  // namespace

Runner::Runner(RunnerOptions options) : options_(std::move(options)) {}

ExperimentResult Runner::run(const ExperimentSpec& spec) const {
  // ---- plan: manifest, fingerprint, option validation ----------------
  const Plan plan(spec);
  const std::size_t n_jobs = plan.job_count();

  if (options_.merge_only && options_.cache_dir.empty()) {
    throw std::invalid_argument("experiment '" + spec.title +
                                "': merge mode requires a store directory");
  }
  if (options_.compact_cache && options_.cache_dir.empty()) {
    throw std::invalid_argument("experiment '" + spec.title +
                                "': store compaction requires a store "
                                "directory");
  }
  if (options_.compact_cache && options_.shard) {
    // Compaction rewrites every writer's data; a shard run is by
    // definition one of several concurrent writers, so the combination
    // would silently discard the records its siblings are appending.
    // Compact from the lone coordinating process (--merge or a full
    // run) after the shards finish.
    throw std::invalid_argument("experiment '" + spec.title +
                                "': store compaction cannot run from a "
                                "shard (sibling shards may be appending); "
                                "compact from the merge step instead");
  }
  if (options_.merge_only && options_.shard) {
    throw std::invalid_argument("experiment '" + spec.title +
                                "': merge mode is incompatible with a shard");
  }
  if (options_.shard &&
      (options_.shard->count < 1 || options_.shard->index < 0 ||
       options_.shard->index >= options_.shard->count)) {
    throw std::invalid_argument(
        "experiment '" + spec.title + "': shard " +
        std::to_string(options_.shard->index) + "/" +
        std::to_string(options_.shard->count) + " needs 0 <= i < n");
  }

  std::optional<store::CompactionStats> compaction;
  if (options_.compact_cache) {
    compaction = store::compact_store(options_.store_backend,
                                      options_.cache_dir, plan.fingerprint(),
                                      spec.metrics.size());
  }

  std::unique_ptr<store::CampaignStore> cache;
  std::map<std::size_t, std::vector<double>> cached;
  if (!options_.cache_dir.empty()) {
    std::string tag;
    if (options_.shard) {
      tag += 's';
      tag += std::to_string(options_.shard->index);
      tag += "of";
      tag += std::to_string(options_.shard->count);
    }
    cache = store::make_store(options_.store_backend, options_.cache_dir,
                              plan.fingerprint(), tag);
    cached = cache->load(spec.metrics.size());
  }

  std::vector<std::size_t> pending;
  std::size_t merge_missing = 0;
  if (options_.merge_only) {
    // Check every index, not the record count: stray out-of-range
    // records (a hand-edited or corrupted store) must not mask a
    // genuinely missing job.
    std::size_t present = 0;
    std::size_t first_missing = n_jobs;
    for (std::size_t i = 0; i < n_jobs; ++i) {
      if (cached.count(i)) {
        ++present;
      } else if (first_missing == n_jobs) {
        first_missing = i;
      }
    }
    merge_missing = n_jobs - present;
    if (present < n_jobs && !options_.keep_going) {
      std::string message =
          "experiment '" + spec.title + "': merge found only " +
          std::to_string(present) + " of " + std::to_string(n_jobs) +
          " jobs in store '" + options_.cache_dir + "' (first missing: " +
          plan.describe(plan.job(first_missing)) + ")";
      // Jobs that failed under --keep-going left error rows
      // instead of metrics; say so rather than just "missing".
      const auto errors = cache->load_errors();
      std::size_t failed = 0;
      std::string first_error;
      for (const auto& [index, error] : errors) {
        if (index < n_jobs && !cached.count(index)) {
          if (failed++ == 0) {
            first_error = "job " + std::to_string(index) + ": " + error;
          }
        }
      }
      if (failed > 0) {
        message += "; " + std::to_string(failed) +
                   " of the missing job(s) recorded as failed (first: " +
                   first_error + "); re-run without --merge to retry them" +
                   " or pass --keep-going to fold the partial result";
      }
      throw std::runtime_error(message);
    }
  } else {
    pending.reserve(n_jobs);
    for (std::size_t i = 0; i < n_jobs; ++i) {
      if (options_.shard && !options_.shard->contains(i)) {
        continue;
      }
      if (cached.count(i)) {
        continue;
      }
      pending.push_back(i);
    }
  }

  // ---- execute: pool over pending jobs, store + progress as we go ----
  std::vector<std::vector<double>> results(n_jobs);
  Progress progress(spec.title, pending.size(), options_.progress);

  // Campaign trace (--trace-out): per-job spans on per-worker tracks
  // and fail markers. The log is observational only — it never feeds
  // results or the store.
  std::optional<obs::TraceLog> trace;
  if (!options_.trace_out.empty()) {
    trace.emplace();
    trace->name_process(obs::kCampaignPid, "campaign: " + spec.title);
  }
  obs::TraceLog* const tlog = trace ? &*trace : nullptr;
  if (compaction) {
    progress.note("compacted store '" + options_.cache_dir + "': kept " +
                  std::to_string(compaction->records_kept) + " of " +
                  std::to_string(compaction->records_seen) + " records, " +
                  std::to_string(compaction->files_scanned) + " file(s) -> " +
                  (compaction->records_kept > 0 ? "1" : "0"));
  }
  if (!cached.empty()) {
    progress.note(std::to_string(cached.size()) + "/" +
                  std::to_string(n_jobs) + " jobs stored, executing " +
                  std::to_string(pending.size()));
  }
  if (options_.merge_only && merge_missing > 0) {
    progress.note(std::to_string(merge_missing) + " job(s) missing from "
                  "the store; folding the partial result (--keep-going)");
  }

  // The worker that finishes a job appends its row itself, under one
  // mutex: CampaignStore::append is called by one thread at a time, and
  // a row is durable before its worker claims the next job.
  std::mutex store_mutex;
  std::size_t rows_written = 0;  // guarded by store_mutex
  const bool storing = cache && !pending.empty();
  if (storing) {
    cache->annotate(spec.title, spec.metrics);
  }
  auto append_row = [&](const store::StoreRecord& record) {
    if (!storing) {
      return;
    }
    std::lock_guard<std::mutex> lock(store_mutex);
    cache->append(record);
    ++rows_written;
  };

  std::mutex error_mutex;
  std::string first_error;
  std::atomic<bool> failed{false};
  std::atomic<std::size_t> failed_jobs{0};
  std::string first_failure;  // guarded by error_mutex (keep_going path)

  int threads = options_.jobs;
  if (threads <= 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
  }
  threads = std::max(1, threads);
  const auto pool_size =
      std::min<std::size_t>(static_cast<std::size_t>(threads), pending.size());

  // One shared cursor over the pending list: a worker claims the next
  // job as soon as it finishes one, so uneven cell costs never leave a
  // thread idle while work remains. The claim order changes who
  // computes a job, never what it computes — results land in
  // job-indexed slots and are folded in job order afterwards.
  std::atomic<std::size_t> next{0};

  auto work = [&](int tid) {
    while (!failed.load(std::memory_order_relaxed)) {
      const std::size_t k = next.fetch_add(1, std::memory_order_relaxed);
      if (k >= pending.size()) {
        return;
      }
      const Job& job = plan.job(pending[k]);
      const double job_t0 = tlog != nullptr ? tlog->now_us() : 0.0;
      std::string what;
      try {
        auto metrics = spec.run(job);
        if (metrics.size() != spec.metrics.size()) {
          throw std::runtime_error(
              "returned " + std::to_string(metrics.size()) +
              " metrics, expected " + std::to_string(spec.metrics.size()));
        }
        append_row({job.index, metrics, {}});
        results[job.index] = std::move(metrics);
        if (tlog != nullptr) {
          tlog->span(plan.describe(job), obs::kCampaignPid, tid, job_t0,
                     tlog->now_us() - job_t0, job_args(job.index));
        }
        progress.tick();
        continue;
      } catch (const std::exception& e) {
        what = e.what();
      } catch (...) {
        what = "non-standard exception";
      }
      // The job failed: record it and carry on (keep_going) or abort.
      if (options_.keep_going) {
        const std::string described = plan.describe(job) + ": " + what;
        try {
          append_row({job.index, {}, described});
          failed_jobs.fetch_add(1, std::memory_order_relaxed);
          {
            std::lock_guard<std::mutex> lock(error_mutex);
            if (first_failure.empty()) {
              first_failure = described;
            }
          }
          if (tlog != nullptr) {
            const double now = tlog->now_us();
            tlog->instant("fail", obs::kCampaignPid, tid, now,
                          job_args(job.index));
            tlog->span(plan.describe(job), obs::kCampaignPid, tid, job_t0,
                       now - job_t0, job_args(job.index, ", \"failed\": true"));
          }
          progress.tick();
          continue;
        } catch (const std::exception& e) {
          // The store itself failed — that is fatal even under
          // keep_going; fall through to the abort path.
          what = e.what();
        }
      }
      std::lock_guard<std::mutex> lock(error_mutex);
      if (!failed.exchange(true)) {
        first_error = plan.describe(job) + ": " + what;
      }
      return;
    }
  };

  if (pool_size <= 1) {
    work(0);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(pool_size);
    for (std::size_t t = 0; t < pool_size; ++t) {
      pool.emplace_back(work, static_cast<int>(t));
    }
    for (auto& thread : pool) {
      thread.join();
    }
  }

  if (storing) {
    progress.note("store '" + cache->describe() + "': " +
                  std::to_string(rows_written) + " row(s)");
  }

  // Write the campaign trace even when a job failed — a trace of the
  // run that died is exactly what the post-mortem wants.
  if (trace) {
    try {
      trace->write(options_.trace_out);
      progress.note("campaign trace (" + std::to_string(trace->size()) +
                    " events) written to '" + options_.trace_out + "'");
    } catch (const std::exception& e) {
      if (!failed.exchange(true)) {
        first_error = e.what();
      }
    }
  }

  if (failed.load()) {
    throw std::runtime_error("experiment '" + spec.title + "' failed at " +
                             first_error);
  }
  if (const std::size_t n_failed = failed_jobs.load(); n_failed > 0) {
    progress.note(std::to_string(n_failed) +
                  " job(s) failed (first: " + first_failure +
                  "); their cells aggregate the surviving replicates and "
                  "the failures are recorded as error rows");
  }

  // ---- collect: job-order fold over stored + fresh metrics -----------
  // Replicates of a cell are contiguous, so each Accumulator sees its
  // samples in replicate order no matter how the pool (or an earlier
  // stored/sharded run) interleaved execution. Jobs outside this shard
  // and absent from the store are simply skipped, yielding the shard's
  // partial result.
  ExperimentResult result(spec.title, spec.grid, spec.metrics,
                          spec.replicates);
  for (std::size_t i = 0; i < n_jobs; ++i) {
    const std::vector<double>* metrics = nullptr;
    if (!results[i].empty()) {
      metrics = &results[i];
    } else if (const auto it = cached.find(i); it != cached.end()) {
      metrics = &it->second;
    } else {
      continue;
    }
    const std::size_t cell = i / static_cast<std::size_t>(spec.replicates);
    auto& stats = result.cell(cell);
    for (std::size_t m = 0; m < spec.metrics.size(); ++m) {
      stats.metrics[m].add((*metrics)[m]);
    }
  }
  return result;
}

ExperimentResult run_experiment(const ExperimentSpec& spec, int jobs) {
  RunnerOptions options;
  options.jobs = jobs;
  return Runner(options).run(spec);
}

ExperimentResult run_experiment(const ExperimentSpec& spec,
                                const RunnerOptions& options) {
  return Runner(options).run(spec);
}

RunnerOptions options_from_cli(const util::Cli& cli) {
  RunnerOptions options;
  options.jobs = cli.jobs();
  if (const auto shard = cli.get("shard"); !shard.empty()) {
    options.shard = parse_shard(shard);
  }
  options.cache_dir = cli.get("cache");
  if (cli.has("store")) {
    options.store_backend = store::backend_from_label(cli.get("store"));
  }
  options.merge_only = cli.get_flag("merge");
  options.compact_cache = cli.get_flag("cache-compact");
  options.progress = cli.get_flag("progress");
  options.keep_going = cli.get_flag("keep-going");
  options.trace_out = cli.get("trace-out");
  // Runner::run owns the merge/store/shard consistency rules.
  return options;
}

}  // namespace bas::exp
