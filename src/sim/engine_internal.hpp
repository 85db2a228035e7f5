#pragma once
// Internals of the simulator (simulator.cpp and event_engine.cpp):
// per-run runtime structs, the per-(seed, graph, instance, node)
// actual-computation draw, the Scratch arena, and the setup/release
// helpers. Their observable behaviour is bit-frozen by the golden
// tests.
//
// Not part of the public API: include only from src/sim/*.cpp.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "arrival/arrival.hpp"
#include "dvs/policy.hpp"
#include "dvs/processor.hpp"
#include "obs/trace_log.hpp"
#include "sched/priority.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace bas::sim::detail {

constexpr double kEps = 1e-9;
constexpr double kCycleEps = 0.5;  // cycles; completion snap threshold
constexpr double kInf = std::numeric_limits<double>::infinity();

struct NodeRt {
  double wc = 0.0;
  double ac = 0.0;
  double remaining_ac = 0.0;
  int pending_preds = 0;
  bool done = false;

  double executed() const { return ac - remaining_ac; }
};

struct InstanceRt {
  std::uint32_t number = 0;
  double release_s = 0.0;
  double deadline_s = 0.0;
  std::vector<NodeRt> nodes;
  /// Ids with pending_preds == 0 and !done, ascending — incrementally
  /// maintained so the ready-list scan touches only ready nodes. The
  /// ascending order reproduces exactly the id-order walk the scan
  /// previously did over all nodes (same candidates, same sequence —
  /// which the Random priority's draw stream depends on).
  std::vector<tg::NodeId> ready;
  std::size_t done_count = 0;
  /// Paper's WCi: Σ ac(done) + Σ wc(pending).
  double cc_wc = 0.0;
  /// Σ over incomplete nodes of (wc − executed cycles).
  double remaining_wc = 0.0;

  bool complete() const { return done_count == nodes.size(); }
};

/// One graph's release stream. Each graph gets a fresh ArrivalProcess
/// bound to its period and a private Rng derived from (config seed,
/// arrival tag, graph index) — a pure function of the coordinates, so
/// arrivals are identical across schemes (common random numbers), for
/// any thread count under the campaign runner.
/// `next` holds the one precomputed upcoming release; once it reaches
/// the horizon the stream is closed (kInf) and never drawn from again,
/// keeping the draw sequence independent of how the run ends.
struct ArrivalRt {
  std::unique_ptr<arrival::ArrivalProcess> process;
  util::Rng rng{0};
  double prev = -1.0;
  double next = kInf;
};

struct ScoredCandidate {
  sched::Candidate cand;
  double score = 0.0;
};

/// One constant-operating-point stretch of a chosen node's slot.
struct Phase {
  dvs::OperatingPoint op;
  double start, end;
};

/// One slice accrued into the battery merge window,
/// kept so a window that empties the cell mid-interval can attribute
/// energy/charge/busy time exactly up to the cutoff.
struct WinSlice {
  double dur = 0.0;
  double current_a = 0.0;
  double power_w = 0.0;
  bool busy = false;
};

/// Int-indexed view over per-graph state: the simulator addresses
/// graphs with the int ids GraphStatus uses, while the backing storage
/// is a std::vector. The one size_t cast lives here instead of at
/// every subscript.
template <typename T>
class ByGraph {
 public:
  explicit ByGraph(std::vector<T>& v) : v_(&v) {}
  T& operator[](int g) const { return (*v_)[static_cast<std::size_t>(g)]; }

 private:
  std::vector<T>* v_;
};

/// Immutable per-node facts hoisted out of the release loop: the wcet,
/// predecessor count, the draw_actual hash key (a pure function of
/// (seed, graph, node)) and — under kPerNodeMean — the node's
/// persistent mean fraction, which the original formula re-derived
/// from the same key at every release.
struct NodeStatic {
  double wc = 0.0;
  int pred_count = 0;
  std::uint64_t draw_key = 0;
  double mean_frac = 0.0;  // kPerNodeMean only
};

/// Immutable per-graph facts (TaskGraph::total_wcet_cycles() re-sums
/// the node list on every call, so the per-step status snapshot reads
/// the value from here instead).
struct GraphStatic {
  double period_s = 0.0;
  double deadline_s = 0.0;
  double total_wc_cycles = 0.0;
  std::vector<NodeStatic> nodes;
};

inline double draw_actual(const SimConfig& cfg, const NodeStatic& ns,
                          std::uint32_t instance) {
  const std::uint64_t inst_key =
      util::Rng::hash_combine(ns.draw_key, 0xabcd0000ULL + instance);
  if (cfg.ac_model == AcModel::kIid) {
    util::Rng rng(inst_key);
    return ns.wc * rng.uniform(cfg.ac_lo_frac, cfg.ac_hi_frac);
  }
  // Persistent per-node mean (precomputed: instance-independent) plus
  // per-instance jitter.
  util::Rng jitter_rng(inst_key);
  const double frac =
      std::clamp(ns.mean_frac + jitter_rng.uniform(-cfg.ac_jitter,
                                                   cfg.ac_jitter),
                 cfg.ac_lo_frac, cfg.ac_hi_frac);
  return ns.wc * frac;
}

/// The scheduling loop's working set, owned by the Simulator and reused
/// across steps and runs. Buffers are cleared (size 0) or overwritten
/// in full each step, never reallocated in steady state — the zero-
/// alloc property SimResult::perf.scratch_grows tracks. Reuse is an
/// exact transformation: every element written this step is written
/// before it is read, so the values never depend on what a previous
/// step (or run) left behind.
///
/// `edf`, `statuses` and `expiry` are maintained persistently across
/// steps (insert/erase at releases and completions instead of a
/// per-step rebuild).
struct Scratch {
  std::vector<GraphStatic> statics;  // filled once, in the ctor
  std::vector<InstanceRt> inst;
  std::vector<std::uint32_t> released_count;
  std::vector<ArrivalRt> arrivals;
  std::vector<dvs::GraphStatus> statuses;
  std::vector<int> edf;
  std::vector<ScoredCandidate> candidates;
  EventQueue queue;
  std::vector<WinSlice> win_slices;
  /// Graphs released in the current event batch, each once. EDF/status
  /// maintenance replays after the batch so the list keys stay
  /// consistent when several graphs release at one instant.
  std::vector<int> released_batch;
  /// Complete-but-unexpired instances as (abs deadline, graph),
  /// ascending — the watch that zeroes cc_wc_cycles the moment t passes
  /// the deadline, reproducing the rebuilt snapshot's "expired" rule
  /// without an O(graphs) sweep per step.
  std::vector<std::pair<double, int>> expiry;
  /// SimConfig::check_incremental_state: the from-scratch EDF rebuild
  /// the maintained order is compared against.
  std::vector<int> edf_check;
};

/// Resets the reused working set without releasing capacity:
/// instances return to the
/// pre-first-release state (an empty node list counts as complete()),
/// each graph's node buffer keeps its allocation from earlier releases
/// and runs, and the static status fields are written once so the
/// per-step snapshot touches only the dynamic four.
inline void reset_run_state(Scratch& s, std::size_t n) {
  if (s.inst.size() != n) {
    s.inst.resize(n);
  }
  for (auto& ir : s.inst) {
    ir.number = 0;
    ir.release_s = 0.0;
    ir.deadline_s = 0.0;
    ir.nodes.clear();
    ir.ready.clear();
    ir.done_count = 0;
    ir.cc_wc = 0.0;
    ir.remaining_wc = 0.0;
  }
  s.released_count.assign(n, 0);
  if (s.arrivals.size() != n) {
    s.arrivals.resize(n);
  }
  s.statuses.resize(n);
  for (std::size_t g = 0; g < n; ++g) {
    auto& st = s.statuses[g];
    st.graph = static_cast<int>(g);
    st.period_s = s.statics[g].period_s;
    st.wc_total_cycles = s.statics[g].total_wc_cycles;
  }
}

/// Builds every graph's arrival stream and precomputes its first
/// release (streams past the horizon close to kInf and are never drawn
/// from again).
inline void init_arrivals(Scratch& s, const SimConfig& cfg,
                          int n_graphs) {
  for (int g = 0; g < n_graphs; ++g) {
    auto& ar = s.arrivals[static_cast<std::size_t>(g)];
    ar.process = arrival::make(cfg.arrival,
                               s.statics[static_cast<std::size_t>(g)].period_s);
    ar.rng = util::Rng(util::derive_seed(
        cfg.seed, {0x41525256ULL /*'ARRV'*/, static_cast<std::uint64_t>(g)}));
    ar.prev = -1.0;
    const double first = ar.process->next_release(ar.prev, ar.rng);
    ar.next = first < cfg.horizon_s - kEps ? first : kInf;
  }
}

/// Earliest upcoming release across all graphs. A graph's `next` only
/// changes when it releases, so callers refresh the cached minimum once
/// per release batch instead of rescanning at every decision point.
inline double min_next_release(const Scratch& s) {
  double best = kInf;
  for (const auto& ar : s.arrivals) {
    best = std::min(best, ar.next);
  }
  return best;
}

/// Releases graph g's next instance at time arrivals[g].next and
/// advances the stream: single-buffered supersede counts a deadline
/// miss, node actuals are drawn from the stateless per-(instance, node)
/// keys, and the ready list starts as the no-predecessor ids in
/// ascending order.
inline void release_instance(Scratch& s, const SimConfig& cfg,
                             int g, SimResult& res, bool count_perf) {
  auto& ir = s.inst[static_cast<std::size_t>(g)];
  auto& ar = s.arrivals[static_cast<std::size_t>(g)];
  const auto& gs = s.statics[static_cast<std::size_t>(g)];
  if (s.released_count[static_cast<std::size_t>(g)] > 0 && !ir.complete()) {
    ++res.deadline_misses;  // previous instance overran into this release
  }
  ir.number = s.released_count[static_cast<std::size_t>(g)];
  ir.release_s = ar.next;
  ir.deadline_s = ir.release_s + gs.deadline_s;
  ar.prev = ar.next;
  if (ar.next != kInf) {
    const double upcoming = ar.process->next_release(ar.prev, ar.rng);
    ar.next = upcoming < cfg.horizon_s - kEps ? upcoming : kInf;
  }
  const std::size_t n_nodes = gs.nodes.size();
  if (ir.nodes.size() != n_nodes) {
    if (count_perf && ir.nodes.capacity() < n_nodes) {
      ++res.perf.scratch_grows;
    }
    ir.nodes.resize(n_nodes);
  }
  ir.done_count = 0;
  ir.ready.clear();
  for (tg::NodeId id = 0; id < n_nodes; ++id) {
    const auto& ns = gs.nodes[id];
    auto& nr = ir.nodes[id];
    nr.wc = ns.wc;
    nr.ac = draw_actual(cfg, ns, ir.number);
    nr.remaining_ac = nr.ac;
    nr.pending_preds = ns.pred_count;
    nr.done = false;
    if (ns.pred_count == 0) {
      ir.ready.push_back(id);
    }
  }
  // Σ wc over the release loop is the same node-order fold
  // total_wcet_cycles() performs, precomputed in the constructor.
  ir.cc_wc = gs.total_wc_cycles;
  ir.remaining_wc = gs.total_wc_cycles;
  ++s.released_count[static_cast<std::size_t>(g)];
  ++res.instances_released;
  if (cfg.trace_log != nullptr) {
    // Sim-time release marker, one per instance on the graph's track.
    // The fixed name is what the trace-based arrival-rate diagnostic
    // counts (tests/test_arrival.cpp).
    char args[64];
    std::snprintf(args, sizeof(args), "{\"graph\": %d, \"instance\": %llu}",
                  g, static_cast<unsigned long long>(ir.number));
    cfg.trace_log->instant("release", obs::kSimPid, g, ir.release_s * 1e6,
                           args);
  }
}

}  // namespace bas::sim::detail
