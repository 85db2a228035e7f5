// perfbench: the repository's end-to-end and per-layer benchmark binary.
// perfbench/run.py builds it and drives it; see perfbench/README.md.
//
//   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//             [--size full|tiny] [--work-dir DIR]
//
// --trace 0 (timed): whole campaign reps, each after set-up probes, as
// many as --seconds holds at the workload's nominal rep time; prints the
// end-to-end metrics, most of them from each job's best time over the
// reps. --trace 1 (traced): campaign reps with spans and the program's
// own counters, plus a resume of each store; prints the per-layer
// metrics. Either way every job's outputs are checked and the result
// digest must repeat across reps. The last stdout line is one JSON object.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign.hpp"
#include "obs/profiler.hpp"
#include "spans.hpp"
#include "util/table.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

/// Workers per campaign. With the store's writer thread this is four
/// threads, the box's core count; at 4 workers contention slows every job.
constexpr int kWorkers = 3;
/// Reps per run, at least: a job's best time needs two runs of it, and a
/// traced run shows that its counts repeat.
constexpr std::size_t kMinReps = 2;
/// Set-up-only reps before each timed rep; setup_s is the fastest of them
/// and of every rep's own set-up. Set-up takes a fraction of a millisecond
/// (a few with the SQLite store), and the host's thread-start and file
/// latency swings between regimes several times that size: per-run
/// medians of the gallery's set-up came out near 2.5 ms in some runs and
/// 6 ms in others, with identical code. The fastest set-up tracks the work
/// the program does there, which is what the metric is meant to catch.
constexpr int kSetupProbesPerRep = 50;

struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  bool seed_given = false;
  double seconds = 10.0;
  bool traced = false;
  bool tiny = false;
  std::filesystem::path work_dir = ".bench_build/work";
};

double parse_number(const std::string& flag, const std::string& text) {
  std::size_t used = 0;
  double value = 0.0;
  try {
    value = std::stod(text, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used != text.size() || !std::isfinite(value)) {
    throw UsageError("--" + flag + " needs a number, got '" + text + "'");
  }
  return value;
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag.rfind("--", 0) != 0) {
      throw UsageError("unexpected argument '" + flag + "'");
    }
    const std::string name = flag.substr(2);
    if (i + 1 >= argc) {
      throw UsageError(flag + " needs a value");
    }
    const std::string value = argv[++i];
    if (name == "workload") {
      args.workload = value;
    } else if (name == "seed") {
      const double seed = parse_number(name, value);
      if (seed < 0 || seed != std::floor(seed) || seed > 9.0e15) {
        throw UsageError("--seed needs a non-negative integer, got '" +
                         value + "'");
      }
      args.seed = static_cast<std::uint64_t>(seed);
      args.seed_given = true;
    } else if (name == "seconds") {
      args.seconds = parse_number(name, value);
      if (args.seconds <= 0.0) {
        throw UsageError("--seconds must be positive");
      }
    } else if (name == "trace") {
      if (value != "0" && value != "1") {
        throw UsageError("--trace takes 0 or 1, got '" + value + "'");
      }
      args.traced = value == "1";
    } else if (name == "size") {
      if (value != "full" && value != "tiny") {
        throw UsageError("--size takes full or tiny, got '" + value + "'");
      }
      args.tiny = value == "tiny";
    } else if (name == "work-dir") {
      args.work_dir = value;
    } else {
      throw UsageError("unknown flag '" + flag + "'");
    }
  }
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), args.workload) == names.end()) {
    std::string known;
    for (const auto& n : names) {
      known += (known.empty() ? "" : ", ") + n;
    }
    throw UsageError("unknown workload '" + args.workload + "' (known: " +
                     known + ")");
  }
  if (!args.seed_given) {
    args.seed = default_seed(args.workload);
  }
  return args;
}

double median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The highest whole percentile with at least 10 samples above it
/// (p98 of 500, p94 of 195, p84 of 65), never below the median.
int tail_percentile(std::size_t n) {
  const double p = std::floor(100.0 * (1.0 - 10.0 / static_cast<double>(n)));
  return static_cast<int>(std::max(50.0, p));
}

/// Nearest-rank percentile.
double percentile(std::vector<double> v, int p) {
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::max<std::size_t>(rank, 1) - 1];
}

std::string num(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string quoted(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out + "\"";
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;
  /// A count the program records: must repeat exactly across reps.
  bool deterministic = false;
};

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (const auto& m : metrics) {
    out += (out.size() > 1 ? ", " : "") + quoted(m.name) +
           ": {\"value\": " +
           (std::isfinite(m.value) ? num(m.value) : "null") + ", \"unit\": " + quoted(m.unit) +
           "}";
  }
  return out + "}";
}

void print_metrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("\n%s\n", title);
  bas::util::Table table({"metric", "value", "unit", "note"});
  for (const auto& m : metrics) {
    table.add_row({m.name, num(m.value), m.unit, m.note});
  }
  table.print();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// The per-layer metrics of one traced rep (README.md defines each).
std::vector<Metric> layer_metrics(const RepResult& rep, const SpanLog& log) {
  using bas::obs::Phase;
  const auto spans = log.totals();
  const auto span = [&](const char* name) {
    const auto it = spans.find(name);
    return it == spans.end() ? SpanLog::NameTotals{} : it->second;
  };
  const auto count = [&](const char* name) {
    return rep.counters.has(name) ? rep.counters.value(name) : 0.0;
  };
  const auto phase = [&](Phase p) { return count(bas::obs::phase_field(p)); };
  const auto share = [](double part, double whole) {
    return whole > 0.0 ? part / whole : 0.0;
  };
  double phase_ns = 0.0;
  for (int p = 0; p < bas::obs::kPhaseCount; ++p) {
    phase_ns += phase(static_cast<Phase>(p));
  }
  const double job_us = span("job").total_us;
  const double sim_us = span("sim.simulate").total_us;
  const double discharge_ns = 1e3 * span("battery.discharge").total_us;
  const double battery_ns = phase(Phase::kBatteryAdvance) + discharge_ns;
  const double run_us = span("exp.run").total_us;
  const auto workload = span("scenario.make_workload");

  return {
      {"sim.busy_share", share(sim_us, job_us), "fraction",
       "sim.simulate time / job time"},
      {"sim.ns_per_step", share(1e3 * sim_us, count("steps")), "ns",
       "sim.simulate time / steps (profiled build)"},
      {"sim.steps", count("steps"), "count", "scheduling steps", true},
      {"sim.events_popped", count("events_popped"), "count", "", true},
      {"sim.idle_time_jumped_s", count("idle_time_jumped_s"), "s",
       "simulated idle time crossed in one jump", true},
      {"sim.edf_incremental_ops", count("edf_incremental_ops"), "count", "",
       true},
      {"sim.scratch_grows", count("scratch_grows"), "count", "", true},
      {"sim.queue_ops_share", share(phase(Phase::kQueueOps), phase_ns),
       "fraction", "of the BAS_PROFILE phase total"},
      {"sim.incremental_maint_share",
       share(phase(Phase::kIncrementalMaint), phase_ns), "fraction", ""},
      {"sim.bookkeeping_share", share(phase(Phase::kBookkeeping), phase_ns),
       "fraction", ""},
      {"dvs.select_share", share(phase(Phase::kDvsSelect), phase_ns),
       "fraction", "dvs-select phase"},
      {"sched.candidates_scored", count("candidates_scored"), "count", "",
       true},
      {"sched.candidate_build_share",
       share(phase(Phase::kCandidateBuild), phase_ns), "fraction", ""},
      {"sched.estimate_score_share",
       share(phase(Phase::kEstimateScore), phase_ns), "fraction", ""},
      {"sched.select_share", share(phase(Phase::kSelect), phase_ns),
       "fraction", ""},
      {"battery.draws", count("battery_draws"), "count",
       "kernel calls: draw + advance_interval", true},
      {"battery.interval_advances", count("battery_interval_advances"),
       "count", "of which merged-window advances", true},
      {"battery.ns_per_draw", share(battery_ns, count("battery_draws")), "ns",
       "battery time / kernel calls"},
      {"battery.k_exp_calls", count("k_exp_calls"), "count", "", true},
      {"battery.k_fast_advances", count("k_fast_advances"), "count", "", true},
      {"battery.advance_share", share(battery_ns, phase_ns + discharge_ns),
       "fraction", "battery-advance phase + battery.discharge spans"},
      {"scenario.make_workload_us",
       share(workload.total_us, static_cast<double>(workload.count)), "us",
       "mean per job"},
      {"scenario.make_workload_share", share(workload.total_us, job_us),
       "fraction", "of job time"},
      {"exp.worker_util", share(job_us, kWorkers * run_us), "fraction",
       "job time / (workers x exp.run wall)"},
      {"exp.max_job_share", share(span("job").max_us, run_us), "fraction",
       "longest job / exp.run wall"},
      {"exp.sink_ms", span("exp.sink").total_us / 1e3, "ms", "CSV sink"},
      {"store.rows", static_cast<double>(rep.store_rows), "count",
       "rows the resume served", true},
      {"store.bytes", static_cast<double>(rep.store_bytes), "B",
       "store files after the run"},
      {"store.resume_ms", span("store.resume").total_us / 1e3, "ms",
       "second Runner::run, all hits"},
  };
}

void print_spans(const SpanLog& log) {
  std::printf("\nspans of the last traced rep (self = span minus the union "
              "of its children)\n");
  bas::util::Table table({"span", "count", "total_ms", "self_ms", "max_ms"});
  for (const auto& [name, t] : log.totals()) {
    table.add_row({name, std::to_string(t.count),
                   bas::util::Table::num(t.total_us / 1e3, 3),
                   bas::util::Table::num(t.self_us / 1e3, 3),
                   bas::util::Table::num(t.max_us / 1e3, 3)});
  }
  table.print();
}

int run(const Args& args) {
  std::filesystem::create_directories(args.work_dir);
  std::printf("perfbench: workload %s, seed %llu, %s run, %d workers + "
              "store writer (closed loop), %s size\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed),
              args.traced ? "traced" : "timed", kWorkers,
              args.tiny ? "tiny" : "full");
  RepOptions rep_options;
  rep_options.workload = args.workload;
  rep_options.workload_options.seed = args.seed;
  rep_options.workload_options.tiny = args.tiny;
  rep_options.workers = kWorkers;
  rep_options.work_dir = args.work_dir;

  std::vector<std::string> problems;
  std::vector<double> setups;
  RepOptions probe = rep_options;
  probe.setup_only = true;

  std::vector<RepResult> reps;
  std::vector<std::vector<Metric>> layers;
  std::unique_ptr<SpanLog> last_log;
  // A fixed number of reps for the workload and --seconds, not as many
  // as fit: a job's best of more reps reads faster, so a count that grew
  // with the program's speed would exaggerate every change.
  const auto rep_count = std::max(
      kMinReps, static_cast<std::size_t>(args.seconds /
                                         nominal_rep_s(args.workload)));
  while (reps.size() < rep_count) {
    for (int i = 0; i < (args.traced ? 0 : kSetupProbesPerRep); ++i) {
      setups.push_back(run_rep(probe).setup_s);
    }
    auto log = args.traced ? std::make_unique<SpanLog>() : nullptr;
    rep_options.log = log.get();
    reps.push_back(run_rep(rep_options));
    const RepResult& rep = reps.back();
    const std::string d = digest(rep.csv);
    std::printf("rep %zu: wall %.4f s, set-up %.6f s, %zu jobs, %zu failed, "
                "digest %s\n",
                reps.size(), rep.wall_s, rep.setup_s, rep.attempted, rep.failed,
                d.c_str());
    std::fflush(stdout);
    setups.push_back(rep.setup_s);
    for (const auto& failure : rep.failures) {
      problems.push_back(failure);
    }
    if (d != digest(reps.front().csv)) {
      problems.push_back("rep " + std::to_string(reps.size()) +
                         " result digest " + d + " differs from rep 1");
    }
    for (const auto& f : rep.fidelity) {
      if (!std::isfinite(f.value)) {
        problems.push_back(f.name + " is not finite");
      }
    }
    if (log) {
      layers.push_back(layer_metrics(rep, *log));
      for (std::size_t i = 0; i < layers.back().size(); ++i) {
        const Metric& now = layers.back()[i];
        if (now.deterministic && now.value != layers.front()[i].value) {
          problems.push_back(now.name + " differs between traced reps (" +
                             num(now.value) + " vs " +
                             num(layers.front()[i].value) + ")");
        }
      }
      last_log = std::move(log);
    }
  }

  std::size_t attempted = 0;
  std::size_t failed = 0;
  double wall_s = 0.0;
  std::vector<std::string> walls;
  // Each job's best time over the reps, in job order. The host's load
  // moves a rep's job times by a fifth and more, in stretches of seconds
  // to minutes; a job's best of many reps spread over the run follows the
  // program instead (README.md, "Timing").
  std::vector<double> best_ms = reps.front().job_ms;
  for (const auto& rep : reps) {
    attempted += rep.attempted;
    failed += rep.failed;
    wall_s += rep.wall_s;
    walls.push_back(num(rep.wall_s));
    // Reps differ in length only when a job failed, which fails the run.
    best_ms.resize(std::min(best_ms.size(), rep.job_ms.size()));
    for (std::size_t i = 0; i < best_ms.size(); ++i) {
      best_ms[i] = std::min(best_ms[i], rep.job_ms[i]);
    }
  }
  if (best_ms.empty()) {
    problems.push_back("no job completed");
  }
  // The jobs' times spread over five decades on battery-ratecap, so the
  // typical job is their geometric mean: a median job would jump between
  // neighbours 30% apart as a seed moves the stochastic cell's jobs.
  double best_s = 0.0;
  double log_sum = 0.0;
  for (const double ms : best_ms) {
    best_s += ms / 1e3;
    log_sum += std::log(ms);
  }
  const std::size_t per_rep = best_ms.size();
  const std::string best_of =
      "each job's best of " + std::to_string(reps.size()) + " reps";

  std::vector<Metric> metrics;
  if (!args.traced) {
    metrics = {
        {"sims_per_worker_s", static_cast<double>(per_rep) / best_s, "1/s",
         std::to_string(per_rep) + " jobs / " +
             bas::util::Table::num(best_s, 3) + " s, " + best_of},
        {"job_p50_ms", median(best_ms), "ms",
         "n=" + std::to_string(per_rep) + ", " + best_of},
        {"job_gmean_ms",
         std::exp(log_sum / static_cast<double>(std::max<std::size_t>(per_rep, 1))),
         "ms", "geometric mean over " + std::to_string(per_rep) + ", " + best_of},
        {"job_tail_ms",
         per_rep > 0 ? percentile(best_ms, tail_percentile(per_rep)) : 0.0,
         "ms",
         "p" + std::to_string(tail_percentile(std::max<std::size_t>(per_rep, 1))) +
             " of " + std::to_string(per_rep) + ", " + best_of},
        {"sims_per_s", static_cast<double>(attempted - failed) / wall_s, "1/s",
         std::to_string(attempted - failed) + " jobs over " +
             bas::util::Table::num(wall_s, 2) + " s of wall"},
        {"setup_s", *std::min_element(setups.begin(), setups.end()), "s",
         "fastest of " + std::to_string(setups.size()) + " set-ups"},
        {"peak_rss_mb", peak_rss_mb(), "MB", "process peak RSS"},
        {"failed_job_frac",
         attempted > 0 ? static_cast<double>(failed) / attempted : 0.0,
         "fraction",
         std::to_string(failed) + " of " + std::to_string(attempted) +
             " jobs"},
    };
    print_metrics("end-to-end", metrics);
  } else {
    // Counts come from the first rep (they repeat exactly); times are
    // medians over the reps.
    metrics = layers.front();
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      if (!metrics[i].deterministic) {
        std::vector<double> values;
        for (const auto& layer : layers) {
          values.push_back(layer[i].value);
        }
        metrics[i].value = median(values);
      }
    }
    print_metrics("per-layer (BAS_PROFILE build when available)", metrics);
    print_spans(*last_log);
    const auto trace_path =
        args.work_dir / ("trace-" + args.workload + ".json");
    last_log->write(trace_path.string());
    std::printf("span trace written to %s\n", trace_path.string().c_str());
  }
  std::vector<Metric> fidelity;
  for (const auto& f : reps.front().fidelity) {
    fidelity.push_back({f.name, f.value, f.unit, f.note});
  }
  print_metrics("paper fidelity (deterministic for a seed)", fidelity);
  const std::string result_digest = digest(reps.front().csv);
  std::printf("\nresult digest (fnv1a64 of the result CSVs): %s\n",
              result_digest.c_str());
  constexpr std::size_t kShownProblems = 10;
  for (std::size_t i = 0; i < std::min(problems.size(), kShownProblems); ++i) {
    std::printf("CHECK FAILED: %s\n", problems[i].c_str());
  }
  if (problems.size() > kShownProblems) {
    std::printf("... and %zu more failed checks\n",
                problems.size() - kShownProblems);
  }
  const bool correct = problems.empty() && failed == 0;
  std::printf(
      "{\"workload\": %s, \"mode\": %s, \"seed\": %llu, \"correct\": %s, "
      "\"attempted\": %zu, \"failed\": %zu, \"digest\": %s, "
      "\"phase_profile\": %s, \"rep_wall_s\": [",
      quoted(args.workload).c_str(), args.traced ? "\"traced\"" : "\"timed\"",
      static_cast<unsigned long long>(args.seed), correct ? "true" : "false",
      attempted, failed, quoted(result_digest).c_str(),
      bas::obs::PhaseProfile::compiled_in ? "true" : "false");
  for (std::size_t i = 0; i < walls.size(); ++i) {
    std::printf("%s%s", i ? ", " : "", walls[i].c_str());
  }
  std::printf("], \"metrics\": %s, \"fidelity\": %s}\n",
              metrics_json(metrics).c_str(), metrics_json(fidelity).c_str());
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const UsageError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
