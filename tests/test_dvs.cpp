// Tests for the processor model, frequency realizer, and the four DVS
// frequency-setting policies.

#include <gtest/gtest.h>

#include <cmath>

#include "dvs/policy.hpp"
#include "dvs/processor.hpp"
#include "dvs/realizer.hpp"

namespace bas {
namespace {

dvs::GraphStatus status(int graph, double period, double deadline,
                        double wc_total, double cc_wc, double remaining,
                        bool complete = false) {
  dvs::GraphStatus s;
  s.graph = graph;
  s.period_s = period;
  s.abs_deadline_s = deadline;
  s.wc_total_cycles = wc_total;
  s.cc_wc_cycles = cc_wc;
  s.remaining_wc_cycles = remaining;
  s.complete = complete;
  return s;
}

TEST(Processor, PaperDefaultShape) {
  const auto p = dvs::Processor::paper_default();
  ASSERT_EQ(p.points().size(), 3u);
  EXPECT_DOUBLE_EQ(p.fmin_hz(), 0.5e9);
  EXPECT_DOUBLE_EQ(p.fmax_hz(), 1.0e9);
  EXPECT_DOUBLE_EQ(p.points()[1].voltage_v, 4.0);
  EXPECT_FALSE(p.continuous());
}

TEST(Processor, FullSpeedCurrentCalibration) {
  const auto p = dvs::Processor::paper_default();
  // Ceff calibrated for ~1.8 A battery current at (1 GHz, 5 V).
  EXPECT_NEAR(p.battery_current_a(p.points().back()), 1.8, 1e-9);
}

TEST(Processor, CurrentScalesCubicallyWithS) {
  // With V proportional to f, Ibat ~ s^3 (paper §2).
  const auto p = dvs::Processor::continuous_ideal(1e9, 5.0);
  const dvs::OperatingPoint full{1e9, p.voltage_at(1e9)};
  const dvs::OperatingPoint half{0.5e9, p.voltage_at(0.5e9)};
  const double ratio = p.battery_current_a(full) / p.battery_current_a(half);
  EXPECT_NEAR(ratio, 8.0, 1e-9);
}

TEST(Processor, EnergyPerCycleGrowsWithVoltage) {
  const auto p = dvs::Processor::paper_default();
  double prev = 0.0;
  for (const auto& op : p.points()) {
    const double epc = p.energy_per_cycle_j(op);
    EXPECT_GT(epc, prev);
    prev = epc;
  }
}

TEST(Processor, VoltageLookup) {
  const auto p = dvs::Processor::paper_default();
  EXPECT_DOUBLE_EQ(p.voltage_at(0.75e9), 4.0);
  EXPECT_THROW(p.voltage_at(0.6e9), std::invalid_argument);
  const auto c = dvs::Processor::continuous_ideal(1e9, 5.0);
  EXPECT_DOUBLE_EQ(c.voltage_at(0.6e9), 3.0);
}

TEST(Processor, RejectsBadConstruction) {
  EXPECT_THROW(dvs::Processor({}, 1.2, 0.9, 1e-10, 0.0),
               std::invalid_argument);
  EXPECT_THROW(dvs::Processor({{1e9, 5.0}, {1e9, 4.0}}, 1.2, 0.9, 1e-10, 0.0),
               std::invalid_argument);
  EXPECT_THROW(dvs::Processor({{1e9, 5.0}}, 1.2, 1.5, 1e-10, 0.0),
               std::invalid_argument);
  EXPECT_THROW(dvs::Processor({{1e9, 0.0}}, 1.2, 0.9, 1e-10, 0.0),
               std::invalid_argument);
  // Voltage decreasing in frequency is physically nonsensical here.
  EXPECT_THROW(
      dvs::Processor({{0.5e9, 5.0}, {1e9, 3.0}}, 1.2, 0.9, 1e-10, 0.0),
      std::invalid_argument);
}

TEST(Realizer, ExactPointPassesThrough) {
  const auto p = dvs::Processor::paper_default();
  const auto plan = dvs::realize(p, 0.75e9);
  EXPECT_DOUBLE_EQ(plan.effective_freq_hz, 0.75e9);
  EXPECT_TRUE(plan.single_level() ||
              std::abs(plan.hi_fraction - 1.0) < 1e-12);
}

TEST(Realizer, MixDeliversRequestedFrequency) {
  const auto p = dvs::Processor::paper_default();
  for (double fref : {0.55e9, 0.6e9, 0.7e9, 0.8e9, 0.9e9, 0.99e9}) {
    const auto plan = dvs::realize(p, fref);
    EXPECT_LE(plan.lo.freq_hz, fref);
    EXPECT_GE(plan.hi.freq_hz, fref);
    const double mixed = plan.hi_fraction * plan.hi.freq_hz +
                         (1.0 - plan.hi_fraction) * plan.lo.freq_hz;
    EXPECT_NEAR(mixed, fref, 1.0) << "fref=" << fref;
    EXPECT_NEAR(plan.effective_freq_hz, fref, 1.0);
  }
}

TEST(Realizer, MixUsesAdjacentPoints) {
  const auto p = dvs::Processor::paper_default();
  const auto plan = dvs::realize(p, 0.6e9);
  EXPECT_DOUBLE_EQ(plan.lo.freq_hz, 0.5e9);
  EXPECT_DOUBLE_EQ(plan.hi.freq_hz, 0.75e9);
}

TEST(Realizer, ClampsOutOfRange) {
  const auto p = dvs::Processor::paper_default();
  const auto low = dvs::realize(p, 0.1e9);
  EXPECT_DOUBLE_EQ(low.effective_freq_hz, 0.5e9);
  const auto high = dvs::realize(p, 2e9);
  EXPECT_DOUBLE_EQ(high.effective_freq_hz, 1e9);
}

TEST(Realizer, ContinuousIsExact) {
  const auto p = dvs::Processor::continuous_ideal(1e9, 5.0);
  const auto plan = dvs::realize(p, 0.6347e9);
  EXPECT_DOUBLE_EQ(plan.effective_freq_hz, 0.6347e9);
  EXPECT_TRUE(plan.single_level());
}

TEST(NoDvs, AlwaysFmax) {
  auto policy = dvs::make_no_dvs(1e9);
  const std::vector<dvs::GraphStatus> empty;
  EXPECT_DOUBLE_EQ(policy->select(empty, 0.0), 1e9);
}

TEST(StaticDvs, UsesStaticUtilization) {
  auto policy = dvs::make_static_dvs(1e9);
  std::vector<dvs::GraphStatus> graphs{
      status(0, 1.0, 1.0, 3e8, 3e8, 3e8),
      status(1, 2.0, 2.0, 8e8, 8e8, 8e8),
  };
  EXPECT_NEAR(policy->select(graphs, 0.0), 0.7e9, 1.0);
}

TEST(CcEdf, TracksWciUpdates) {
  auto policy = dvs::make_cc_edf(1e9);
  // Algorithm 1: U = sum(WCi/Di), fref = U * fmax (WCi in cycles, so
  // fref is directly cycles/s).
  std::vector<dvs::GraphStatus> graphs{
      status(0, 1.0, 1.0, 5e8, 5e8, 5e8),
      status(1, 2.0, 2.0, 4e8, 4e8, 4e8),
  };
  EXPECT_NEAR(policy->select(graphs, 0.0), 0.7e9, 1.0);
  // A node of graph 0 finished early: WCi drops from 5e8 to 3e8.
  graphs[0].cc_wc_cycles = 3e8;
  EXPECT_NEAR(policy->select(graphs, 0.1), 0.5e9, 1.0);
}

TEST(CcEdf, ClampsAtFmax) {
  auto policy = dvs::make_cc_edf(1e9);
  std::vector<dvs::GraphStatus> graphs{
      status(0, 1.0, 1.0, 2e9, 2e9, 2e9),
  };
  EXPECT_DOUBLE_EQ(policy->select(graphs, 0.0), 1e9);
}

TEST(LaEdf, SingleGraphRunsJustInTime) {
  auto policy = dvs::make_la_edf(1e9);
  // One graph, 5e8 cycles remaining, deadline in 1 s: everything must
  // run before dn, so fref = 5e8.
  std::vector<dvs::GraphStatus> graphs{
      status(0, 1.0, 1.0, 5e8, 5e8, 5e8),
  };
  EXPECT_NEAR(policy->select(graphs, 0.0), 5e8, 1.0);
}

TEST(LaEdf, DefersWorkPastEarliestDeadline) {
  auto policy = dvs::make_la_edf(1e9);
  // Graph 0: deadline 1 s, 2e8 cycles. Graph 1: deadline 10 s, 5e8
  // cycles, utilization 0.05. Almost all of graph 1 defers past t=1,
  // so laEDF should pick a frequency well below ccEDF's.
  std::vector<dvs::GraphStatus> graphs{
      status(0, 1.0, 1.0, 2e8, 2e8, 2e8),
      status(1, 10.0, 10.0, 5e8, 5e8, 5e8),
  };
  const double fref = policy->select(graphs, 0.0);
  EXPECT_GE(fref, 2e8 - 1.0);   // must at least finish graph 0
  EXPECT_LT(fref, 0.25e9);      // but nearly nothing of graph 1
}

TEST(LaEdf, NeverBelowImminentDemandAcrossLoads) {
  auto policy = dvs::make_la_edf(1e9);
  // Whatever the mix, fref * (dn - now) must cover the most imminent
  // graph's remaining work.
  for (double rem : {1e8, 3e8, 6e8, 9e8}) {
    std::vector<dvs::GraphStatus> graphs{
        status(0, 1.0, 1.0, rem, rem, rem),
        status(1, 5.0, 5.0, 1e9, 1e9, 1e9),
    };
    const double fref = policy->select(graphs, 0.0);
    EXPECT_GE(fref * 1.0, rem - 1.0) << "rem=" << rem;
    EXPECT_LE(fref, 1e9);
  }
}

TEST(LaEdf, CompleteInstancesContributeNothing) {
  auto policy = dvs::make_la_edf(1e9);
  std::vector<dvs::GraphStatus> graphs{
      status(0, 1.0, 1.0, 5e8, 4e8, 0.0, /*complete=*/true),
      status(1, 2.0, 2.0, 4e8, 4e8, 4e8),
  };
  const double fref = policy->select(graphs, 0.0);
  // Only graph 1's work remains; 4e8 cycles / 2 s = 2e8 minimum.
  EXPECT_GE(fref, 2e8 - 1.0);
  EXPECT_LT(fref, 4e8);
}

TEST(LaEdf, AllCompleteMeansZero) {
  auto policy = dvs::make_la_edf(1e9);
  std::vector<dvs::GraphStatus> graphs{
      status(0, 1.0, 1.0, 5e8, 4e8, 0.0, true),
  };
  EXPECT_DOUBLE_EQ(policy->select(graphs, 0.5), 0.0);
}

TEST(LaEdf, PastDeadlineRunsFlatOut) {
  auto policy = dvs::make_la_edf(1e9);
  std::vector<dvs::GraphStatus> graphs{
      status(0, 1.0, 1.0, 5e8, 5e8, 1e8),
  };
  EXPECT_DOUBLE_EQ(policy->select(graphs, 1.0), 1e9);
}

TEST(PolicyNames, AreStable) {
  EXPECT_EQ(dvs::make_no_dvs(1e9)->name(), "noDVS");
  EXPECT_EQ(dvs::make_static_dvs(1e9)->name(), "staticDVS");
  EXPECT_EQ(dvs::make_cc_edf(1e9)->name(), "ccEDF");
  EXPECT_EQ(dvs::make_la_edf(1e9)->name(), "laEDF");
}

}  // namespace
}  // namespace bas
