// Battery kernel counter suite: the per-kernel counters that attribute
// battery work, on the one state-advance path (Battery::draw) that
// both the per-slice simulator and its merged battery windows take.

#include <gtest/gtest.h>

#include "battery/diffusion.hpp"
#include "battery/kibam.hpp"
#include "battery/peukert.hpp"
#include "core/scheme.hpp"
#include "scenario/scenario.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace bas {
namespace {

TEST(Counters, DiffusionMemoAttribution) {
  bat::DiffusionBattery cell(bat::DiffusionParams::paper_aaa_nimh());
  const auto terms = static_cast<std::uint64_t>(
      bat::DiffusionParams::paper_aaa_nimh().series_terms);
  // Three draws at one (current, dt): one decay sweep, then memo hits.
  for (int i = 0; i < 3; ++i) {
    cell.draw(1.8, 0.5);
  }
  EXPECT_EQ(cell.kernel_counters().exp_sweeps, 1u);
  EXPECT_EQ(cell.kernel_counters().exp_calls, terms);
  EXPECT_EQ(cell.kernel_counters().decay_misses, 1u);
  EXPECT_GE(cell.kernel_counters().decay_hits, 2u);
  EXPECT_EQ(cell.kernel_counters().gain_misses, 1u);
  // A changed current at the same t refills only the gain lane.
  cell.draw(0.3888, 0.5);
  EXPECT_EQ(cell.kernel_counters().exp_sweeps, 1u);
  EXPECT_EQ(cell.kernel_counters().gain_misses, 2u);
  cell.reset();
  EXPECT_EQ(cell.kernel_counters().exp_calls, 0u);
  EXPECT_EQ(cell.kernel_counters().exp_sweeps, 0u);
}

TEST(Counters, KibamAndPeukertAttribution) {
  bat::KibamBattery kibam(bat::KibamParams::paper_aaa_nimh());
  kibam.draw(0.9, 10.0);
  kibam.draw(0.0, 5.0);
  EXPECT_GE(kibam.kernel_counters().kibam_shared_exps, 2u);

  bat::PeukertBattery peukert{bat::PeukertParams{}};
  for (int i = 0; i < 4; ++i) {
    peukert.draw(0.9, 10.0);
  }
  peukert.draw(1.8, 10.0);
  EXPECT_EQ(peukert.kernel_counters().pow_misses, 2u);  // two distinct rates
  EXPECT_GE(peukert.kernel_counters().pow_hits, 3u);
}

TEST(EngineCounters, MergedWindowsRouteThroughExactSeries) {
  const auto& spec = scenario::scenario("paper-table2");
  util::Rng rng(7);
  const auto set = spec.make_workload(rng);
  const auto proc = spec.make_processor();
  auto config = spec.sim_config(util::Rng::hash_combine(7, 1000u));
  config.record_perf_counters = true;
  config.horizon_s = 3600.0;

  bat::DiffusionBattery merged(bat::DiffusionParams::paper_aaa_nimh());
  const auto with_window = sim::simulate_scheme(
      set, proc, core::SchemeKind::kBas2, config, &merged);
  // Merged windows draw through the exact series: every exp the kernel
  // evaluates belongs to a full per-term sweep.
  const auto terms = static_cast<std::uint64_t>(
      bat::DiffusionParams::paper_aaa_nimh().series_terms);
  EXPECT_GT(with_window.perf.battery_interval_advances, 0u);
  EXPECT_GT(with_window.perf.kernel.exp_sweeps, 0u);
  EXPECT_EQ(with_window.perf.kernel.exp_calls,
            with_window.perf.kernel.exp_sweeps * terms);
}

}  // namespace
}  // namespace bas
