// Domain example: a battery-powered sensor node with a bursty duty
// cycle — sample, process, transmit — where the battery's recovery
// effect dominates. Demonstrates the battery substrate standalone:
// comparing duty-cycling strategies with identical average demand on
// the calibrated models, and picking a sampling period from lifetime
// targets. Both sweeps run on the experiment engine (--jobs/--csv), and
// the cells come from the scenario registry — the same models the
// `sensor-node` scenario pits the schedulers against.

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "battery/lifetime.hpp"
#include "exp/runner.hpp"
#include "exp/sink.hpp"
#include "scenario/scenario.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace bas;
  util::Cli cli(argc, argv, util::Cli::with_bench_defaults({}));

  // The radio dominates: 1.2 A while transmitting. Each duty cycle
  // samples (80 mA, 50 ms), processes (250 mA, 100 ms), transmits
  // (1.2 A, 40 ms), then sleeps at 2 mA.
  auto make_cycle = [](double period_s) {
    bat::LoadProfile p;
    p.add(0.050, 0.080);
    p.add(0.100, 0.250);
    p.add(0.040, 1.200);
    p.add(period_s - 0.190, 0.002);
    return p;
  };

  const std::vector<double> periods{0.5, 1.0, 2.0, 5.0, 10.0};
  std::vector<std::string> period_labels;
  for (const double period : periods) {
    period_labels.push_back(util::Table::num(period, 1));
  }
  const std::vector<std::string> models{"kibam", "diffusion", "ideal"};

  util::print_banner("Sensor node: sampling period vs battery lifetime");

  exp::ExperimentSpec sweep;
  sweep.title = "sensor_node_period_sweep";
  sweep.config = cli.config_summary();
  sweep.grid.add("period_s", period_labels);
  sweep.metrics = {"kibam_h", "diffusion_h", "ideal_h", "avg_ma", "samples"};
  sweep.run = [&](const exp::Job& job) -> std::vector<double> {
    const double period = periods[job.at(0)];
    const auto cycle = make_cycle(period);
    std::vector<double> out;
    double kibam_life_s = 0.0;
    for (const auto& model : models) {
      const auto cell = scenario::make_battery(model);
      const auto life = bat::lifetime_under_profile(*cell, cycle, 5e6);
      if (model == "kibam") {
        kibam_life_s = life.lifetime_s;
      }
      out.push_back(life.lifetime_s / 3600.0);
    }
    out.push_back(1000.0 * cycle.average_current_a());
    out.push_back(static_cast<double>(
        static_cast<long long>(kibam_life_s / period)));
    return out;
  };
  const auto result = exp::run_experiment(sweep, exp::options_from_cli(cli));

  util::Table table({"period (s)", "avg current (mA)", "kibam (h)",
                     "diffusion (h)", "ideal (h)", "samples taken"});
  for (std::size_t c = 0; c < result.cell_count(); ++c) {
    table.add_row({result.grid().labels(c)[0],
                   util::Table::num(result.mean(c, 3), 1),
                   util::Table::num(result.mean(c, 0), 1),
                   util::Table::num(result.mean(c, 1), 1),
                   util::Table::num(result.mean(c, 2), 1),
                   util::Table::num(static_cast<long long>(
                       result.mean(c, 4)))});
  }
  table.print();

  // Same average demand, different burst arrangement: transmit right
  // after processing (back-to-back peak) vs spread out with rest gaps.
  util::print_banner("Burst arrangement at fixed 2 s period (equal demand)");
  bat::LoadProfile back_to_back;
  back_to_back.add(0.050, 0.080);
  back_to_back.add(0.100, 0.250);
  back_to_back.add(0.040, 1.200);
  back_to_back.add(1.810, 0.002);
  bat::LoadProfile spread;
  spread.add(0.050, 0.080);
  spread.add(0.905, 0.002);
  spread.add(0.100, 0.250);
  spread.add(0.040, 1.200);
  spread.add(0.905, 0.002);
  const std::vector<std::pair<std::string, const bat::LoadProfile*>>
      arrangements{{"back-to-back", &back_to_back},
                   {"spread with rests", &spread}};

  exp::ExperimentSpec burst;
  burst.title = "sensor_node_burst_arrangement";
  burst.config = cli.config_summary();
  burst.grid.add("arrangement", {arrangements[0].first, arrangements[1].first});
  burst.metrics = {"lifetime_h", "delivered_mah"};
  burst.run = [&](const exp::Job& job) -> std::vector<double> {
    const auto cell = scenario::make_battery("kibam");
    const auto r = bat::lifetime_under_profile(
        *cell, *arrangements[job.at(0)].second, 5e6);
    return {r.lifetime_s / 3600.0, r.delivered_mah()};
  };
  const auto burst_result =
      exp::run_experiment(burst, exp::options_from_cli(cli));

  util::Table t2({"arrangement", "kibam lifetime (h)", "delivered (mAh)"});
  for (std::size_t c = 0; c < burst_result.cell_count(); ++c) {
    t2.add_row({burst_result.grid().labels(c)[0],
                util::Table::num(burst_result.mean(c, 0), 2),
                util::Table::num(burst_result.mean(c, 1), 0)});
  }
  t2.print();
  std::printf(
      "\nRest gaps between bursts give the two-well battery time to "
      "equalize — the same recovery effect BAS exploits at the "
      "scheduler level.\n");

  if (const auto csv = cli.get("csv"); !csv.empty()) {
    exp::write(result, csv);
    // The burst-arrangement sweep is a second experiment; write it next
    // to the main file rather than silently dropping it.
    std::string burst_csv = csv;
    const auto dot = burst_csv.rfind('.');
    burst_csv.insert(dot == std::string::npos ? burst_csv.size() : dot,
                     "-burst");
    exp::write(burst_result, burst_csv);
    std::printf("wrote %s and %s\n", csv.c_str(), burst_csv.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return bas::util::run_main(argc, argv, run);
}
