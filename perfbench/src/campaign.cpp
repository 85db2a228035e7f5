#include "campaign.hpp"

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <mutex>
#include <stdexcept>
#include <system_error>

#include "exp/runner.hpp"
#include "exp/sink.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;
using namespace bas;

/// Every cell in the registry is the paper's 2000 mAh AAA NiMH. The
/// relative slack only absorbs the last-bit rounding of the ideal cell's
/// charge sum.
constexpr double kMaxDeliveredMah = 2000.0 * (1.0 + 1e-9);

double seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

/// The output checks every job passes: finite values, delivered charge
/// within the cell, positive lifetimes, non-negative energy and misses.
void check_outputs(const std::vector<std::string>& names,
                   const std::vector<double>& values) {
  if (values.size() != names.size()) {
    throw std::runtime_error("returned " + std::to_string(values.size()) +
                             " values for " + std::to_string(names.size()) +
                             " metrics");
  }
  for (std::size_t i = 0; i < names.size(); ++i) {
    const std::string& name = names[i];
    const double v = values[i];
    bool ok = std::isfinite(v);
    if (name == "delivered_mah" || name == "max_capacity_mah") {
      ok = ok && v > 0.0 && v <= kMaxDeliveredMah;
    } else if (name == "lifetime_min") {
      ok = ok && v > 0.0;
    } else if (name == "energy_j" || name == "misses") {
      ok = ok && v >= 0.0;
    }
    if (!ok) {
      char buffer[64];
      std::snprintf(buffer, sizeof(buffer), "%.17g", v);
      throw std::runtime_error("output check failed: " + name + " = " +
                               buffer);
    }
  }
}

std::uintmax_t bytes_under(const fs::path& dir) {
  std::uintmax_t total = 0;
  std::error_code ec;
  for (const auto& entry : fs::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) {
      total += entry.file_size(ec);
    }
  }
  return total;
}

}  // namespace

std::string digest(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(h));
  return buffer;
}

RepResult run_rep(const RepOptions& options) {
  const auto t_start = Clock::now();
  SpanLog* const log = options.log;
  const bool traced = log != nullptr;
  RepResult out;

  ScopedSpan root(log, "run", -1);
  auto setup_span = std::make_unique<ScopedSpan>(log, "setup", root.id());
  Campaign campaign = make_campaign(options.workload, options.workload_options);
  static std::atomic<unsigned> rep_counter{0};
  const fs::path rep_dir =
      options.work_dir / (options.workload + "-" + std::to_string(::getpid()) +
                          "-" + std::to_string(rep_counter++));
  fs::remove_all(rep_dir);
  fs::create_directories(rep_dir);

  std::vector<std::size_t> offset;
  std::size_t total_jobs = 0;
  for (const auto& stage : campaign.stages) {
    offset.push_back(total_jobs);
    total_jobs += stage.spec.job_count();
  }
  std::vector<double> job_ms(total_jobs, -1.0);
  std::vector<obs::Metrics> counters(traced ? total_jobs : 0);
  std::atomic<bool> started{false};
  Clock::time_point first_job{};
  std::atomic<std::size_t> attempted{0};
  std::atomic<std::size_t> failed{0};
  std::mutex failures_mutex;
  setup_span.reset();

  std::vector<exp::ExperimentResult> results;
  std::vector<exp::RunnerOptions> runner_options;
  for (std::size_t si = 0; si < campaign.stages.size(); ++si) {
    const Stage& stage = campaign.stages[si];
    exp::RunnerOptions runner;
    runner.jobs = options.workers;
    runner.keep_going = !options.setup_only;
    if (stage.store) {
      runner.cache_dir = (rep_dir / stage.spec.title).string();
      runner.store_backend = *stage.store;
    }
    runner_options.push_back(runner);

    ScopedSpan run_span(log, "exp.run", root.id());
    exp::ExperimentSpec spec = stage.spec;
    spec.run = [&, si](const exp::Job& job) -> std::vector<double> {
      const auto t0 = Clock::now();
      if (!started.exchange(true)) {
        first_job = t0;
      }
      if (options.setup_only) {
        throw std::runtime_error("set-up probe stops at the first job");
      }
      attempted.fetch_add(1);
      const std::size_t slot = offset[si] + job.index;
      ScopedSpan job_span(log, "job", run_span.id(), static_cast<long>(slot));
      JobContext ctx{log, job_span.id(), traced ? &counters[slot] : nullptr};
      try {
        auto values = stage.body(job, ctx);
        check_outputs(stage.spec.metrics, values);
        job_ms[slot] =
            std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
        return values;
      } catch (const std::exception& e) {
        failed.fetch_add(1);
        std::lock_guard<std::mutex> lock(failures_mutex);
        if (out.failures.size() < 5) {
          out.failures.push_back(stage.spec.title + " job " +
                                 std::to_string(job.index) + ": " + e.what());
        }
        throw;
      }
    };
    if (options.setup_only) {
      try {
        exp::Runner(runner).run(spec);
      } catch (const std::runtime_error&) {
        // The probe's own stop; set-up is over once a job has begun.
      }
      if (!started.load()) {
        throw std::runtime_error("set-up probe never reached a job");
      }
      out.setup_s = seconds(first_job - t_start);
      fs::remove_all(rep_dir);
      return out;
    }
    results.push_back(exp::Runner(runner).run(spec));
  }
  {
    ScopedSpan sink(log, "exp.sink", root.id());
    for (const auto& result : results) {
      exp::write(result, (rep_dir / (result.title() + ".csv")).string());
    }
  }
  out.wall_s = seconds(Clock::now() - t_start);
  out.setup_s = seconds(first_job - t_start);
  out.attempted = attempted.load();
  out.failed = failed.load();
  for (const double ms : job_ms) {
    if (ms >= 0.0) {
      out.job_ms.push_back(ms);
    }
  }
  for (const auto& result : results) {
    out.csv += exp::to_csv(result);
  }
  out.fidelity = campaign.fidelity(results);

  for (const auto& job : counters) {  // empty unless traced
    for (const auto& entry : job.entries()) {
      out.counters.add(entry.name, entry.value, entry.kind);
    }
  }
  // Traced reps then resume every stored stage from its store: all hits.
  for (std::size_t si = 0; traced && si < campaign.stages.size(); ++si) {
    const Stage& stage = campaign.stages[si];
    if (!stage.store) {
      continue;
    }
    out.store_bytes += bytes_under(runner_options[si].cache_dir);
    std::atomic<std::size_t> executed{0};
    exp::ExperimentSpec spec = stage.spec;
    spec.run = [&](const exp::Job& job) {
      executed.fetch_add(1);
      JobContext ctx;
      return stage.body(job, ctx);
    };
    const auto resumed = [&] {
      ScopedSpan resume(log, "store.resume", root.id());
      return exp::Runner(runner_options[si]).run(spec);
    }();
    out.store_rows += spec.job_count() - executed.load();
    if (executed.load() != 0 ||
        exp::to_csv(resumed) != exp::to_csv(results[si])) {
      out.failures.push_back("resuming " + spec.title + " from its store ran " +
                             std::to_string(executed.load()) +
                             " job(s) or changed the result");
    }
  }
  fs::remove_all(rep_dir);
  return out;
}

}  // namespace perfbench
