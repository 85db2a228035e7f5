// Battery merge-window equivalence suite.
//
// The simulator takes its scheduling decisions at the same points with
// the same policy-call sequence and arrival streams (common random
// numbers) whatever the battery merge window, so window 0 (every slice
// drawn individually — the reference the *_tick.csv goldens pin byte
// for byte) and the default window walk the same trajectory in exact
// arithmetic. They may differ numerically only through the merged
// mean-current battery intervals (SimConfig::battery_window_s — see
// EXPERIMENTS.md, "Event-driven core"): lifetime and charge figures
// move by well under 0.1% on the calibrated kernels, every scheme
// ordering is preserved, and runs that record a profile or trace
// (merging disabled) agree draw-for-draw. These tests pin those
// contracts with explicit tolerances; byte-identity at each window is
// pinned separately by the golden smoke.

#include <gtest/gtest.h>

#include <cmath>

#include "scenario/scenario.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace bas {
namespace {

// Relative-difference gate for merged-vs-exact battery figures. The
// observed shift at the default 5 s window is < 0.1%; the gate leaves
// headroom so the test checks the contract, not one machine's noise.
constexpr double kLifetimeRelTol = 5e-3;

constexpr double kDefaultWindowS = 5.0;

// `battery` overrides the scenario's cell label when not empty.
sim::SimResult run_scenario(const std::string& name, core::SchemeKind kind,
                            double window_s, std::uint64_t seed,
                            bool audit = false, double horizon_s = 0.0,
                            const std::string& battery_label = "") {
  const auto& spec = scenario::scenario(name);
  util::Rng rng(seed);
  const auto set = spec.make_workload(rng);
  const auto proc = spec.make_processor();
  auto config = spec.sim_config(util::Rng::hash_combine(seed, 1000u));
  config.battery_window_s = window_s;
  config.record_profile = audit;
  config.record_trace = false;
  config.record_perf_counters = true;
  if (horizon_s > 0.0) {
    config.horizon_s = horizon_s;
  }
  auto battery = scenario::make_battery(
      battery_label.empty() ? spec.battery : battery_label);
  return sim::simulate_scheme(set, proc, kind, config, battery.get());
}

double rel_diff(double a, double b) {
  const double denom = std::max(std::abs(a), std::abs(b));
  return denom > 0.0 ? std::abs(a - b) / denom : 0.0;
}

TEST(MergeWindow, DenseLifetimeAndFeasibilityAgree) {
  // paper-table2: the dense anchor cell, every Table 2 scheme, on the
  // scenario's KiBaM cell and on the diffusion cell (whose merged
  // windows draw through the same exact series as its slices). CRN
  // across windows — same seeds, same workloads, same arrival draws.
  for (const std::string battery : {"kibam", "diffusion"}) {
    for (const auto kind : core::table2_schemes()) {
      const auto exact = run_scenario("paper-table2", kind, 0.0, 11, false,
                                      0.0, battery);
      const auto merged = run_scenario("paper-table2", kind,
                                       kDefaultWindowS, 11, false, 0.0,
                                       battery);
      const std::string what = battery + " " + core::to_string(kind);
      EXPECT_LT(
          rel_diff(exact.battery_lifetime_s, merged.battery_lifetime_s),
          kLifetimeRelTol)
          << what;
      EXPECT_LT(rel_diff(exact.battery_delivered_mah,
                         merged.battery_delivered_mah),
                kLifetimeRelTol)
          << what;
      // Feasibility: released/completed work tracks the lifetime, and the
      // miss count may shift by at most the documented one-window slop.
      EXPECT_LE(std::abs(static_cast<double>(exact.deadline_misses) -
                         static_cast<double>(merged.deadline_misses)),
                2.0)
          << what;
    }
  }
}

TEST(MergeWindow, GuidelineScenarioAgrees) {
  for (const auto kind :
       {core::SchemeKind::kLaEdfRandom, core::SchemeKind::kBas2}) {
    const auto exact = run_scenario("paper-guideline1", kind, 0.0, 23);
    const auto merged =
        run_scenario("paper-guideline1", kind, kDefaultWindowS, 23);
    EXPECT_LT(rel_diff(exact.battery_lifetime_s, merged.battery_lifetime_s),
              kLifetimeRelTol)
        << core::to_string(kind);
    EXPECT_LT(rel_diff(exact.energy_j, merged.energy_j), kLifetimeRelTol)
        << core::to_string(kind);
  }
}

TEST(MergeWindow, SparseScenariosAgree) {
  // The merge window's headline cells: idle-heavy and sporadic traffic.
  // A shortened horizon keeps the test fast; the merge behaviour is the
  // same from the first window on.
  for (const char* name : {"idle-heavy", "sporadic-sensor"}) {
    const auto exact =
        run_scenario(name, core::SchemeKind::kBas2, 0.0, 7, false, 3600.0);
    const auto merged = run_scenario(name, core::SchemeKind::kBas2,
                                     kDefaultWindowS, 7, false, 3600.0);
    EXPECT_LT(rel_diff(exact.end_time_s, merged.end_time_s), kLifetimeRelTol)
        << name;
    EXPECT_LT(rel_diff(exact.charge_c, merged.charge_c), kLifetimeRelTol)
        << name;
    EXPECT_EQ(exact.instances_released, merged.instances_released) << name;
    // Both runs jump the same empty time (sparse by construction).
    EXPECT_GT(merged.perf.idle_time_jumped_s, 0.0) << name;
    EXPECT_GT(exact.perf.idle_time_jumped_s, 0.0) << name;
  }
}

TEST(MergeWindow, AuditRunsAgreeDrawForDraw) {
  // Recording a profile disables battery merging: both windows then
  // make identical kernel calls in identical order, so every figure is
  // bit-equal, not merely close.
  const auto exact = run_scenario("paper-table2", core::SchemeKind::kBas2,
                                  0.0, 31, /*audit=*/true);
  const auto merged = run_scenario("paper-table2", core::SchemeKind::kBas2,
                                   kDefaultWindowS, 31, /*audit=*/true);
  EXPECT_DOUBLE_EQ(exact.end_time_s, merged.end_time_s);
  EXPECT_DOUBLE_EQ(exact.energy_j, merged.energy_j);
  EXPECT_DOUBLE_EQ(exact.charge_c, merged.charge_c);
  EXPECT_DOUBLE_EQ(exact.busy_s, merged.busy_s);
  EXPECT_DOUBLE_EQ(exact.battery_lifetime_s, merged.battery_lifetime_s);
  EXPECT_EQ(exact.instances_completed, merged.instances_completed);
  EXPECT_EQ(exact.deadline_misses, merged.deadline_misses);
  EXPECT_EQ(exact.nodes_executed, merged.nodes_executed);
  EXPECT_EQ(exact.preemptions, merged.preemptions);
}

TEST(MergeWindow, ZeroWindowDisablesMergingExactly) {
  // battery_window_s <= 0 turns merging off even for plain runs: they
  // then reproduce the unmerged audit run's figures bit-exactly.
  const auto plain = run_scenario("paper-table2",
                                  core::SchemeKind::kLaEdfRandom, 0.0, 47);
  const auto audit =
      run_scenario("paper-table2", core::SchemeKind::kLaEdfRandom,
                   kDefaultWindowS, 47, /*audit=*/true);
  EXPECT_DOUBLE_EQ(plain.battery_lifetime_s, audit.battery_lifetime_s);
  EXPECT_DOUBLE_EQ(plain.battery_delivered_mah, audit.battery_delivered_mah);
  EXPECT_DOUBLE_EQ(plain.end_time_s, audit.end_time_s);
  EXPECT_DOUBLE_EQ(plain.energy_j, audit.energy_j);
  EXPECT_EQ(plain.deadline_misses, audit.deadline_misses);
}

TEST(MergeWindow, RunsAreDeterministic) {
  const auto a = run_scenario("paper-table2", core::SchemeKind::kBas2,
                              kDefaultWindowS, 91);
  const auto b = run_scenario("paper-table2", core::SchemeKind::kBas2,
                              kDefaultWindowS, 91);
  EXPECT_DOUBLE_EQ(a.battery_lifetime_s, b.battery_lifetime_s);
  EXPECT_DOUBLE_EQ(a.charge_c, b.charge_c);
  EXPECT_EQ(a.perf.events_popped, b.perf.events_popped);
  EXPECT_EQ(a.perf.battery_interval_advances, b.perf.battery_interval_advances);
}

TEST(MergeWindow, PerfCountersAttributeTheWin) {
  const auto exact = run_scenario("idle-heavy", core::SchemeKind::kLaEdfRandom,
                                  0.0, 5, false, 3600.0);
  const auto merged =
      run_scenario("idle-heavy", core::SchemeKind::kLaEdfRandom,
                   kDefaultWindowS, 5, false, 3600.0);
  // Window 0: one kernel draw per slice, no interval advances.
  EXPECT_EQ(exact.perf.ticks_skipped, 0u);
  EXPECT_EQ(exact.perf.battery_interval_advances, 0u);
  EXPECT_GT(exact.perf.battery_draws, 0u);
  // Default window: per-slice draws are merged into far fewer
  // closed-form interval advances.
  EXPECT_GT(merged.perf.events_popped, 0u);
  EXPECT_GT(merged.perf.ticks_skipped, 0u);
  EXPECT_GT(merged.perf.battery_interval_advances, 0u);
  EXPECT_LT(merged.perf.battery_draws, exact.perf.battery_draws / 2);
}

}  // namespace
}  // namespace bas
