#include "obs/metrics.hpp"

#include <stdexcept>

#include "obs/profiler.hpp"
#include "sim/simulator.hpp"

namespace bas::obs {

void Metrics::set(const std::string& name, double value, MetricKind kind) {
  auto it = index_.find(name);
  if (it == index_.end()) {
    index_.emplace(name, entries_.size());
    entries_.push_back(Entry{name, value, kind});
    return;
  }
  entries_[it->second].value = value;
}

void Metrics::add(const std::string& name, double delta, MetricKind kind) {
  auto it = index_.find(name);
  if (it == index_.end()) {
    set(name, delta, kind);
    return;
  }
  entries_[it->second].value += delta;
}

bool Metrics::has(const std::string& name) const {
  return index_.find(name) != index_.end();
}

double Metrics::value(const std::string& name) const {
  auto it = index_.find(name);
  if (it == index_.end()) {
    throw std::out_of_range("unknown metric '" + name + "'");
  }
  return entries_[it->second].value;
}

void fill(Metrics& metrics, const sim::PerfCounters& perf) {
  auto u = [](std::uint64_t v) { return static_cast<double>(v); };
  // Hot-path lanes.
  metrics.set("steps", u(perf.steps));
  metrics.set("battery_draws", u(perf.battery_draws));
  metrics.set("battery_interval_advances", u(perf.battery_interval_advances));
  metrics.set("candidates_scored", u(perf.candidates_scored));
  metrics.set("scratch_grows", u(perf.scratch_grows));
  metrics.set("events_popped", u(perf.events_popped));
  metrics.set("ticks_skipped", u(perf.ticks_skipped));
  metrics.set("edf_incremental_ops", u(perf.edf_incremental_ops));
  // Battery kernel counters (k_*).
  const auto& k = perf.kernel;
  metrics.set("k_exp_sweeps", u(k.exp_sweeps));
  metrics.set("k_exp_calls", u(k.exp_calls));
  metrics.set("k_decay_hits", u(k.decay_hits));
  metrics.set("k_decay_misses", u(k.decay_misses));
  metrics.set("k_gain_hits", u(k.gain_hits));
  metrics.set("k_gain_misses", u(k.gain_misses));
  metrics.set("k_kibam_shared_exps", u(k.kibam_shared_exps));
  metrics.set("k_pow_hits", u(k.pow_hits));
  metrics.set("k_pow_misses", u(k.pow_misses));
  // Phase profile (ph_*), in phase order; all zero unless the build
  // compiled BAS_PROFILE in and the run recorded perf counters.
  std::uint64_t laps = 0;
  for (int p = 0; p < kPhaseCount; ++p) {
    metrics.set(phase_field(static_cast<Phase>(p)),
                u(perf.phases.ns[p]));
    laps += perf.phases.laps[p];
  }
  metrics.set("ph_laps", u(laps));
}

}  // namespace bas::obs
