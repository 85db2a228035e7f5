// Scheduler overhead microbenchmarks.
//
// The paper argues its two-step methodology is cheap enough for dynamic
// (online) use, unlike cost-function optimization over battery models.
// These benchmarks measure the per-decision costs behind that argument:
// frequency selection (ccEDF / laEDF), pUBS scoring, the feasibility
// check, operating-point realization, and a whole simulated second of
// BAS-2 scheduling. BM_LaEdfSelect at 3/10/30 graphs also sizes laEDF's
// per-step sort of the active graphs, an open optimization in
// ROADMAP.md. Only cases that inform such a decision belong here;
// end-to-end and per-layer perf claims go through perfbench/run.py.
//
// Each case is one call timed by time_case(), a calibrating
// steady_clock loop; setup stays outside the timed loop.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/scheme.hpp"
#include "dvs/policy.hpp"
#include "dvs/realizer.hpp"
#include "scenario/scenario.hpp"
#include "sched/feasibility.hpp"
#include "sched/priority.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace {

using namespace bas;

/// Keeps `value` observable so the compiler cannot drop the call.
template <class T>
void keep(T&& value) {
  asm volatile("" : : "g"(value) : "memory");
}

/// Times `op` over a calibrated iteration count and prints one row:
/// the count grows until the timed loop runs >= 50 ms, long enough to
/// swamp clock granularity.
template <class Op>
void time_case(const std::string& label, Op op) {
  const auto time_loop = [&](std::int64_t iterations) {
    const auto start = std::chrono::steady_clock::now();
    for (std::int64_t i = 0; i < iterations; ++i) {
      keep(op());
    }
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  std::int64_t iterations = 1;
  double elapsed = time_loop(iterations);
  while (elapsed < 0.05 && iterations < (std::int64_t{1} << 40)) {
    const double target = 0.1;
    std::int64_t next =
        elapsed > 0.0
            ? static_cast<std::int64_t>(iterations * (target / elapsed) + 1)
            : iterations * 10;
    next = std::min(next, iterations * 10);
    iterations = std::max(next, iterations + 1);
    elapsed = time_loop(iterations);
  }
  std::printf("%-32s %14.1f ns/op %12lld iters\n", label.c_str(),
              1e9 * elapsed / static_cast<double>(iterations),
              static_cast<long long>(iterations));
}

std::vector<dvs::GraphStatus> make_statuses(int n) {
  std::vector<dvs::GraphStatus> statuses;
  util::Rng rng(5);
  for (int g = 0; g < n; ++g) {
    dvs::GraphStatus s;
    s.graph = g;
    s.period_s = rng.uniform(0.1, 1.0);
    s.abs_deadline_s = s.period_s;
    s.wc_total_cycles = rng.uniform(1e7, 1e8);
    s.cc_wc_cycles = s.wc_total_cycles * rng.uniform(0.5, 1.0);
    s.remaining_wc_cycles = s.cc_wc_cycles * rng.uniform(0.2, 1.0);
    statuses.push_back(s);
  }
  return statuses;
}

void time_select(const char* name, std::unique_ptr<dvs::DvsPolicy> policy,
                 int n) {
  const auto statuses = make_statuses(n);
  time_case(std::string(name) + "/" + std::to_string(n),
            [&] { return policy->select(statuses, 0.01); });
}

}  // namespace

int main() {
  std::printf("%-32s %20s %18s\n", "benchmark", "time", "iterations");
  std::printf("%s\n", std::string(66, '-').c_str());

  for (const int n : {3, 10, 30}) {
    time_select("BM_CcEdfSelect", dvs::make_cc_edf(1e9), n);
  }
  for (const int n : {3, 10, 30}) {
    time_select("BM_LaEdfSelect", dvs::make_la_edf(1e9), n);
  }

  const auto pubs = sched::make_pubs_priority();
  sched::Candidate c;
  c.wc_cycles = 1e7;
  c.estimate_cycles = 6e6;
  c.actual_cycles = 5e6;
  c.graph_abs_deadline_s = 1.0;
  c.graph_remaining_wc_cycles = 5e7;
  time_case("BM_PubsScore", [&] { return pubs->score(c, 0.1); });

  for (const int n : {3, 10, 30}) {
    auto statuses = make_statuses(n);
    std::sort(statuses.begin(), statuses.end(),
              [](const dvs::GraphStatus& a, const dvs::GraphStatus& b) {
                return a.abs_deadline_s < b.abs_deadline_s;
              });
    const int pos = static_cast<int>(statuses.size()) - 1;
    time_case("BM_FeasibilityCheck/" + std::to_string(n), [&] {
      return sched::feasibility_check(statuses, pos, 1e6, 8e8, 0.01);
    });
  }

  const auto proc = scenario::make_processor("paper");
  double f = 0.51e9;
  time_case("BM_Realize", [&] {
    f = f > 0.99e9 ? 0.51e9 : f + 1e6;
    return dvs::realize(proc, f);
  });

  // The multimedia scenario's short frame periods pack the densest
  // decision stream per simulated second of any preset.
  for (const int graphs : {3, 8}) {
    util::Rng rng(9);
    auto scn = scenario::scenario("multimedia-pipeline");
    scn.workload.graph_count = graphs;
    const auto set = scn.make_workload(rng);
    const auto mm_proc = scn.make_processor();
    time_case("BM_SimulatedSecondBas2/" + std::to_string(graphs), [&] {
      sim::SimConfig config = scn.sim_config(1);
      config.horizon_s = 1.0;
      config.drain = true;
      core::Scheme scheme =
          core::make_scheme(core::SchemeKind::kBas2, mm_proc.fmax_hz(), 1);
      sim::Simulator sim(set, mm_proc, scheme, config);
      return sim.run();
    });
  }
  return 0;
}
