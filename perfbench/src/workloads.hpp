#pragma once
// The benchmark's three workloads, each a closed-loop batch campaign on
// exp::Runner (README.md explains why each was chosen):
//
//   table2-full       the paper-table2 preset, 5 schemes x 100 sets,
//                     KiBaM cell, periodic arrivals -> JSONL store
//   scenario-gallery  every scenario preset x 5 schemes x 3 sets
//                     -> SQLite store
//   battery-ratecap   5 battery models x 12 constant loads plus the 5
//                     max-capacity probes, no scheduler, no store
//
// A workload is a list of stages (one ExperimentSpec each) plus a fold
// that derives its paper-fidelity figures from the results. Each job
// body calls the layers through their public entry points and wraps
// every call in a span when a SpanLog is attached.

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "exp/experiment.hpp"
#include "obs/metrics.hpp"
#include "spans.hpp"
#include "store/store.hpp"

namespace perfbench {

/// What a job body gets besides its Job.
struct JobContext {
  /// Span log of a traced run, else null (spans become no-ops).
  SpanLog* log = nullptr;
  /// The enclosing `job` span: parent of the layer spans.
  int job_span = -1;
  /// Traced runs ask the simulator for its perf counters and phase
  /// split and record them into this per-job slot (null when untraced).
  bas::obs::Metrics* counters = nullptr;
};

using JobBody = std::function<std::vector<double>(const bas::exp::Job&,
                                                  JobContext&)>;

struct Stage {
  /// Everything but `run`; the campaign driver wraps `body` into it.
  bas::exp::ExperimentSpec spec;
  JobBody body;
  /// The campaign store this stage writes into (a fresh directory per
  /// rep), or none.
  std::optional<bas::store::Backend> store;
};

/// A figure compared against the paper, deterministic for a seed.
struct Fidelity {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;
};

struct Campaign {
  std::vector<Stage> stages;
  std::function<std::vector<Fidelity>(
      const std::vector<bas::exp::ExperimentResult>&)>
      fidelity;
};

struct WorkloadOptions {
  std::uint64_t seed = 0;
  /// A few jobs per stage, for the benchmark's own smoke check.
  bool tiny = false;
};

/// {"table2-full", "scenario-gallery", "battery-ratecap"}.
const std::vector<std::string>& workload_names();

/// The seed the repository's own driver uses for this workload.
std::uint64_t default_seed(const std::string& workload);

/// Wall time of one full-size rep on the reference box (README.md). A
/// timed run makes `--seconds` / this many reps, whatever the program's
/// speed, so that every job's best time is a best of the same count.
double nominal_rep_s(const std::string& workload);

/// Builds the workload's stages (scenario registry, worlds, processors).
/// Throws std::invalid_argument on an unknown workload.
Campaign make_campaign(const std::string& workload,
                       const WorkloadOptions& options);

}  // namespace perfbench
