// Tests for the profile-clamped DVS decorator (Guideline 1 enforced at
// the DVS level), including its deadline-safety when composed into a
// scheme.

#include <gtest/gtest.h>

#include "dvs/clamped.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"
#include "tgff/workload.hpp"

namespace bas {
namespace {

// ----------------------------------------------------- clamped DVS ---------

dvs::GraphStatus status(int graph, double period, double deadline,
                        double wc_total, double remaining) {
  dvs::GraphStatus s;
  s.graph = graph;
  s.period_s = period;
  s.abs_deadline_s = deadline;
  s.wc_total_cycles = wc_total;
  s.cc_wc_cycles = wc_total;
  s.remaining_wc_cycles = remaining;
  return s;
}

TEST(ClampedDvs, NeverRisesWithinABusyInterval) {
  auto clamped = dvs::make_profile_clamped(dvs::make_cc_edf(1e9));
  std::vector<dvs::GraphStatus> graphs{status(0, 1.0, 1.0, 6e8, 6e8)};
  const double f0 = clamped->select(graphs, 0.0);
  // Inner ccEDF would ask for more after a pessimistic update; the
  // clamp holds the level (the floor stays below it).
  graphs[0].cc_wc_cycles = 9e8;  // inner demand rises
  graphs[0].remaining_wc_cycles = 5e8;
  const double f1 = clamped->select(graphs, 0.1);
  EXPECT_LE(f1, f0 + 1e-6);
}

TEST(ClampedDvs, FollowsInnerDownward) {
  auto clamped = dvs::make_profile_clamped(dvs::make_cc_edf(1e9));
  std::vector<dvs::GraphStatus> graphs{status(0, 1.0, 1.0, 6e8, 6e8)};
  const double f0 = clamped->select(graphs, 0.0);
  graphs[0].cc_wc_cycles = 3e8;  // big slack discovered
  graphs[0].remaining_wc_cycles = 2e8;
  const double f1 = clamped->select(graphs, 0.2);
  EXPECT_LT(f1, f0);
}

TEST(ClampedDvs, DeadlineFloorForcesNecessaryRise) {
  auto clamped = dvs::make_profile_clamped(dvs::make_static_dvs(1e9));
  // Static inner asks 3e8; but with 4e8 cycles remaining and only
  // 0.5 s left, the EDF floor (8e8) must win.
  std::vector<dvs::GraphStatus> graphs{status(0, 1.0, 1.0, 3e8, 4e8)};
  const double f = clamped->select(graphs, 0.5);
  EXPECT_GE(f, 8e8 - 1.0);
}

TEST(ClampedDvs, ReArmsOnNewRelease) {
  auto clamped = dvs::make_profile_clamped(dvs::make_cc_edf(1e9));
  std::vector<dvs::GraphStatus> graphs{status(0, 1.0, 1.0, 6e8, 6e8)};
  clamped->select(graphs, 0.0);
  graphs[0].cc_wc_cycles = 2e8;  // slack: level drops to 2e8
  graphs[0].remaining_wc_cycles = 1e8;
  EXPECT_NEAR(clamped->select(graphs, 0.5), 2e8, 1.0);
  // New instance: deadline moves to 2.0 and full work returns.
  graphs[0] = status(0, 1.0, 2.0, 6e8, 6e8);
  EXPECT_NEAR(clamped->select(graphs, 1.0), 6e8, 1.0);
}

TEST(ClampedDvs, NameAndResetDelegate) {
  auto clamped = dvs::make_profile_clamped(dvs::make_la_edf(1e9));
  EXPECT_EQ(clamped->name(), "laEDF+clamp");
  clamped->reset();  // must not throw
}

TEST(ClampedDvs, SchemeCompositionStaysDeadlineClean) {
  // The decorator composes into the methodology like any DVS policy
  // (the paper's genericity claim): sweep a few random workloads.
  const auto proc = dvs::Processor::paper_default();
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    util::Rng rng(seed * 31u);
    tgff::WorkloadParams wp;
    wp.graph_count = 3;
    wp.target_utilization = 0.9;
    wp.period_lo_s = 0.05;
    wp.period_hi_s = 0.5;
    const auto set = tgff::make_workload(wp, rng);
    core::Scheme scheme = core::make_custom_scheme(
        "clamped-BAS",
        dvs::make_profile_clamped(dvs::make_la_edf(proc.fmax_hz())),
        sched::make_pubs_priority(), sched::make_history_estimator(),
        core::ReadyScope::kAllReleased);
    sim::SimConfig config;
    config.horizon_s = 3.0;
    config.record_trace = true;
    config.seed = seed;
    sim::Simulator simulator(set, proc, scheme, config);
    const auto result = simulator.run();
    EXPECT_EQ(result.deadline_misses, 0u) << "seed " << seed;
    const auto audit = sim::audit_trace(result.trace, set, proc, true);
    EXPECT_TRUE(audit.ok) << audit.summary();
  }
}

// Note: at the *profile* level clamping is not automatically smoother —
// holding the frequency below the inner policy's ask defers work, and
// the deadline floor then ramps the tail of the busy interval up (a
// just-in-time ramp). The decorator's guarantee is per-decision (no
// unforced rise, tested above) plus deadline safety under composition,
// which this scheme-level run checks.
TEST(ClampedDvs, SchemeLevelRunStaysCleanAndComparable) {
  const auto proc = dvs::Processor::paper_default();
  util::Rng rng(55);
  tgff::WorkloadParams wp;
  wp.graph_count = 3;
  wp.target_utilization = 0.7 / 0.6;
  wp.period_lo_s = 0.5;
  wp.period_hi_s = 5.0;
  const auto set = tgff::make_workload(wp, rng);
  sim::SimConfig config;
  config.horizon_s = 60.0;
  config.seed = 5;
  config.ac_model = sim::AcModel::kPerNodeMean;

  auto run_with = [&](std::unique_ptr<dvs::DvsPolicy> policy) {
    core::Scheme scheme = core::make_custom_scheme(
        "x", std::move(policy), sched::make_pubs_priority(),
        sched::make_history_estimator(), core::ReadyScope::kAllReleased);
    sim::Simulator simulator(set, proc, scheme, config);
    return simulator.run();
  };
  const auto plain = run_with(dvs::make_la_edf(proc.fmax_hz()));
  const auto clamped = run_with(
      dvs::make_profile_clamped(dvs::make_la_edf(proc.fmax_hz())));
  EXPECT_EQ(clamped.deadline_misses, 0u);
  EXPECT_EQ(plain.deadline_misses, 0u);
  // Same work completed either way; energies stay in the same regime.
  EXPECT_EQ(clamped.instances_completed, plain.instances_completed);
  EXPECT_NEAR(clamped.energy_j / plain.energy_j, 1.0, 0.15);
}

}  // namespace
}  // namespace bas
