#include "workloads.hpp"

#include <cmath>
#include <memory>
#include <stdexcept>
#include <utility>

#include "battery/lifetime.hpp"
#include "battery/profile.hpp"
#include "battery/stochastic.hpp"
#include "exp/factories.hpp"
#include "scenario/scenario.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace perfbench {

namespace {

using namespace bas;

/// Table 2 of the paper: battery lifetime (min) per scheme, EDF..BAS-2.
constexpr double kPaperLifetimeMin[] = {74.0, 101.0, 120.0, 137.0, 148.0};
/// The paper's AAA NiMH cell; every model in the registry is calibrated
/// to it.
constexpr double kCellMah = 2000.0;
/// Gallery replicates per (scenario, scheme) cell: scenario_gallery's
/// default.
constexpr int kGallerySets = 3;
/// Release horizon the gallery's tiny size clamps every preset to.
constexpr double kTinyHorizonS = 600.0;

std::size_t scheme_index(const std::string& label) {
  const auto& labels = exp::scheme_labels();
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (labels[i] == label) {
      return i;
    }
  }
  throw std::logic_error("scheme label '" + label + "' not on the axis");
}

/// Records a run's hot-path counters under the obs::fill names, plus the
/// one PerfCounters field obs::fill does not register.
void record(obs::Metrics& counters, const sim::PerfCounters& perf) {
  obs::fill(counters, perf);
  counters.set("idle_time_jumped_s", perf.idle_time_jumped_s);
}

/// One scheduled run of a scenario world, as the scenario drivers do it:
/// workload from `workload_seed`, actual computations from
/// `replicate_seed`, a fresh cell.
sim::SimResult simulate(const scenario::ScenarioSpec& world,
                        const dvs::Processor& proc, core::SchemeKind kind,
                        std::uint64_t workload_seed,
                        std::uint64_t replicate_seed, JobContext& ctx) {
  tg::TaskGraphSet set = [&] {
    ScopedSpan span(ctx.log, "scenario.make_workload", ctx.job_span);
    util::Rng rng(workload_seed);
    return world.make_workload(rng);
  }();
  auto config =
      world.sim_config(util::Rng::hash_combine(replicate_seed, 1000u));
  config.record_perf_counters = ctx.counters != nullptr;
  config.record_phase_profile = ctx.counters != nullptr;
  std::unique_ptr<bat::Battery> cell;
  {
    ScopedSpan span(ctx.log, "battery.make", ctx.job_span);
    cell = world.make_battery();
  }
  sim::SimResult result;
  {
    ScopedSpan span(ctx.log, "sim.simulate", ctx.job_span);
    result = sim::simulate_scheme(set, proc, kind, config, cell.get());
  }
  if (ctx.counters != nullptr) {
    record(*ctx.counters, result.perf);
  }
  return result;
}

/// True when mean lifetimes keep EDF <= ccEDF <= laEDF <= BAS-1 <= BAS-2
/// with scenario_gallery's 0.1% slack (ties in saturated worlds are not
/// violations).
bool ordered(const std::vector<double>& lifetimes) {
  for (std::size_t k = 1; k < lifetimes.size(); ++k) {
    if (lifetimes[k] < 0.999 * lifetimes[k - 1]) {
      return false;
    }
  }
  return true;
}

Campaign table2_full(const WorkloadOptions& options) {
  auto world = std::make_shared<const scenario::ScenarioSpec>(
      scenario::scenario("paper-table2"));
  auto proc = std::make_shared<const dvs::Processor>(world->make_processor());

  Stage stage;
  stage.spec.title = "table2_battery_lifetime";
  stage.spec.config = "perfbench table2-full | " + world->fingerprint();
  stage.spec.grid.add("scheme", exp::scheme_labels());
  stage.spec.metrics = {"delivered_mah", "lifetime_min", "energy_j", "misses"};
  stage.spec.replicates = options.tiny ? 2 : 100;
  stage.spec.seed = options.seed;
  stage.store = store::Backend::kJsonl;
  stage.body = [world, proc](const exp::Job& job, JobContext& ctx) {
    // Every scheme sees the same random sets (CRN), as in
    // table2_battery_lifetime.
    const auto r =
        simulate(*world, *proc, exp::scheme_kind_at(job.at(0)),
                 job.replicate_seed, job.replicate_seed, ctx);
    return std::vector<double>{r.battery_delivered_mah,
                               r.battery_lifetime_s / 60.0, r.energy_j,
                               static_cast<double>(r.deadline_misses)};
  };

  Campaign campaign;
  campaign.stages.push_back(std::move(stage));
  campaign.fidelity = [](const std::vector<exp::ExperimentResult>& results) {
    const auto& result = results.at(0);
    const std::size_t life = result.metric_index("lifetime_min");
    std::vector<double> lifetimes;
    double err = 0.0;
    for (std::size_t k = 0; k < result.cell_count(); ++k) {
      lifetimes.push_back(result.mean(k, life));
      err += std::abs(lifetimes[k] - kPaperLifetimeMin[k]) /
             kPaperLifetimeMin[k];
    }
    const double gain = 100.0 * (lifetimes[scheme_index("BAS-2")] /
                                     lifetimes[scheme_index("laEDF")] -
                                 1.0);
    return std::vector<Fidelity>{
        {"bas2_gain_pct", gain, "%", "BAS-2 over laEDF lifetime; paper +23.3"},
        {"table2_life_err_pct", 100.0 * err / static_cast<double>(lifetimes.size()),
         "%", "mean |life - paper| / paper over 74/101/120/137/148 min"},
        {"order_violations", ordered(lifetimes) ? 0.0 : 1.0, "count",
         "cells breaking EDF<=ccEDF<=laEDF<=BAS-1<=BAS-2 (0.1% slack), of 1"},
    };
  };
  return campaign;
}

Campaign scenario_gallery(const WorkloadOptions& options) {
  auto worlds = std::make_shared<std::vector<scenario::ScenarioSpec>>();
  auto procs = std::make_shared<std::vector<dvs::Processor>>();
  std::string catalogue;
  for (const auto& name : scenario::scenario_names()) {
    scenario::ScenarioSpec spec = scenario::scenario(name);
    if (options.tiny) {
      spec.sim.horizon_s = kTinyHorizonS;
    }
    catalogue += (catalogue.empty() ? "" : "; ") + spec.fingerprint();
    procs->push_back(spec.make_processor());
    worlds->push_back(std::move(spec));
  }

  Stage stage;
  stage.spec.title = "scenario_gallery";
  stage.spec.config = "perfbench scenario-gallery | " + catalogue;
  stage.spec.grid = exp::Grid{
      std::vector<exp::Axis>{exp::scenario_axis(), exp::scheme_axis()}};
  stage.spec.metrics = {"lifetime_min", "delivered_mah", "energy_j", "misses"};
  stage.spec.replicates = options.tiny ? 1 : kGallerySets;
  stage.spec.seed = options.seed;
  stage.store = store::Backend::kSqlite;
  stage.body = [worlds, procs](const exp::Job& job, JobContext& ctx) {
    // Schemes within a scenario share its random sets (CRN); scenarios
    // draw their own — scenario_gallery's keying.
    const std::size_t s = job.at(0);
    const auto r = simulate(
        (*worlds)[s], (*procs)[s], exp::scheme_kind_at(job.at(1)),
        util::Rng::hash_combine(job.replicate_seed, s), job.replicate_seed,
        ctx);
    return std::vector<double>{r.battery_lifetime_s / 60.0,
                               r.battery_delivered_mah, r.energy_j,
                               static_cast<double>(r.deadline_misses)};
  };

  Campaign campaign;
  campaign.stages.push_back(std::move(stage));
  const std::size_t n_worlds = worlds->size();
  campaign.fidelity =
      [n_worlds](const std::vector<exp::ExperimentResult>& results) {
        const auto& result = results.at(0);
        const std::size_t life = result.metric_index("lifetime_min");
        const std::size_t n_schemes = exp::scheme_labels().size();
        double gain = 0.0;
        double violations = 0.0;
        for (std::size_t s = 0; s < n_worlds; ++s) {
          std::vector<double> lifetimes;
          for (std::size_t k = 0; k < n_schemes; ++k) {
            lifetimes.push_back(result.mean({s, k}, life));
          }
          gain += 100.0 * (lifetimes[scheme_index("BAS-2")] /
                               lifetimes[scheme_index("laEDF")] -
                           1.0);
          violations += ordered(lifetimes) ? 0.0 : 1.0;
        }
        return std::vector<Fidelity>{
            {"bas2_gain_pct", gain / static_cast<double>(n_worlds), "%",
             "BAS-2 over laEDF lifetime, mean over scenario cells"},
            {"order_violations", violations, "count",
             "cells breaking EDF<=ccEDF<=laEDF<=BAS-1<=BAS-2 (0.1% slack), of " +
                 std::to_string(n_worlds)},
        };
      };
  return campaign;
}

/// The registry's cell for `label`, except that the stochastic model's
/// recovery process — the one random input of this workload — is seeded
/// from the benchmark seed.
std::unique_ptr<bat::Battery> ratecap_cell(const std::string& label,
                                           std::uint64_t seed) {
  if (label == "stochastic") {
    bat::StochasticParams params;
    params.seed = seed;
    return std::make_unique<bat::StochasticBattery>(params);
  }
  return exp::make_battery(label);
}

/// Delivered capacity and lifetime of a fresh cell under a constant load
/// in 1 s slices. Untraced runs call bat::rate_capacity_curve, exactly as
/// the rate_capacity_curve driver does. Traced runs make the same
/// LoadProfile::discharge_repeating call on a clone the benchmark holds,
/// so they can read the cell's kernel counters; the result digest check
/// proves both paths agree bit for bit.
bat::RateCapacityPoint discharge(const std::string& label, std::uint64_t seed,
                                 double load_a, JobContext& ctx) {
  if (ctx.counters == nullptr) {
    const auto prototype = ratecap_cell(label, seed);
    return bat::rate_capacity_curve(*prototype, {load_a}).front();
  }
  std::unique_ptr<bat::Battery> cell;
  {
    ScopedSpan span(ctx.log, "battery.make", ctx.job_span);
    cell = ratecap_cell(label, seed)->fresh_clone();
  }
  double survived = 0.0;
  {
    ScopedSpan span(ctx.log, "battery.discharge", ctx.job_span);
    survived = bat::LoadProfile::constant(load_a, 1.0)
                   .discharge_repeating(*cell, 1.0e7);
  }
  bat::LifetimeResult life;
  life.lifetime_s = survived;
  life.delivered_c = cell->charge_delivered_c();
  sim::PerfCounters perf;
  // One Battery::draw per 1 s slice; the last one may end early.
  perf.battery_draws = static_cast<std::uint64_t>(std::ceil(survived));
  perf.kernel = cell->kernel_counters();
  record(*ctx.counters, perf);
  return {load_a, life.delivered_mah(), life.lifetime_min()};
}

Campaign battery_ratecap(const WorkloadOptions& options) {
  const std::vector<double> loads =
      options.tiny ? std::vector<double>{1.0, 5.0}
                   : std::vector<double>{0.02, 0.05, 0.1, 0.2, 0.4, 0.7,
                                         1.0,  1.4,  1.8, 2.5, 3.5, 5.0};
  std::vector<std::string> load_labels;
  for (const double load : loads) {
    load_labels.push_back(util::Table::num(load, 2));
  }
  const std::uint64_t seed = options.seed;

  Stage curve;
  curve.spec.title = "rate_capacity_curve";
  curve.spec.config = "perfbench battery-ratecap";
  curve.spec.grid =
      exp::Grid{}.add("battery", exp::battery_labels()).add("load_a", load_labels);
  curve.spec.metrics = {"delivered_mah", "lifetime_min"};
  curve.spec.seed = seed;
  curve.body = [loads, seed](const exp::Job& job, JobContext& ctx) {
    const auto point = discharge(exp::battery_labels()[job.at(0)], seed,
                                 loads[job.at(1)], ctx);
    return std::vector<double>{point.delivered_mah, point.lifetime_min};
  };

  // rate_capacity_curve's max-capacity extrapolation: a 20 mA probe per
  // model.
  constexpr double kProbeA = 0.02;
  Stage probes;
  probes.spec.title = "rate_capacity_extrapolation";
  probes.spec.config = "perfbench battery-ratecap";
  probes.spec.grid.add("battery", exp::battery_labels());
  probes.spec.metrics = {"max_capacity_mah"};
  probes.spec.seed = seed;
  probes.body = [seed](const exp::Job& job, JobContext& ctx) {
    const std::string& label = exp::battery_labels()[job.at(0)];
    if (ctx.counters == nullptr) {
      return std::vector<double>{
          bat::max_capacity_mah(*ratecap_cell(label, seed), kProbeA)};
    }
    return std::vector<double>{discharge(label, seed, kProbeA, ctx).delivered_mah};
  };

  Campaign campaign;
  campaign.stages.push_back(std::move(curve));
  campaign.stages.push_back(std::move(probes));
  campaign.fidelity = [](const std::vector<exp::ExperimentResult>& results) {
    const auto& caps = results.at(1);
    double err = 0.0;
    for (std::size_t m = 0; m < caps.cell_count(); ++m) {
      err += std::abs(caps.mean(m, 0) - kCellMah) / kCellMah;
    }
    return std::vector<Fidelity>{
        {"capacity_err_pct",
         100.0 * err / static_cast<double>(caps.cell_count()), "%",
         "mean |extrapolated max capacity - 2000 mAh| / 2000 over the models"},
    };
  };
  return campaign;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{
      "table2-full", "scenario-gallery", "battery-ratecap"};
  return names;
}

std::uint64_t default_seed(const std::string& workload) {
  if (workload == "table2-full") {
    return 2006;
  }
  if (workload == "scenario-gallery") {
    return 2026;
  }
  if (workload == "battery-ratecap") {
    return bas::bat::StochasticParams{}.seed;
  }
  throw std::invalid_argument("unknown workload '" + workload + "'");
}

double nominal_rep_s(const std::string& workload) {
  if (workload == "table2-full") {
    return 5.0;
  }
  if (workload == "scenario-gallery") {
    return 10.0;
  }
  if (workload == "battery-ratecap") {
    return 2.5;
  }
  throw std::invalid_argument("unknown workload '" + workload + "'");
}

Campaign make_campaign(const std::string& workload,
                       const WorkloadOptions& options) {
  if (workload == "table2-full") {
    return table2_full(options);
  }
  if (workload == "scenario-gallery") {
    return scenario_gallery(options);
  }
  if (workload == "battery-ratecap") {
    return battery_ratecap(options);
  }
  throw std::invalid_argument("unknown workload '" + workload + "'");
}

}  // namespace perfbench
