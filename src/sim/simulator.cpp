#include "sim/simulator.hpp"

#include <stdexcept>

#include "sim/engine_internal.hpp"

namespace bas::sim {

Simulator::Simulator(const tg::TaskGraphSet& set, const dvs::Processor& proc,
                     core::Scheme& scheme, SimConfig config)
    : set_(set),
      proc_(proc),
      scheme_(scheme),
      config_(config),
      scratch_(std::make_unique<detail::Scratch>()) {
  set_.validate();
  if (!(config_.horizon_s > 0.0)) {
    throw std::invalid_argument("Simulator: horizon must be positive");
  }
  if (!(config_.ac_lo_frac > 0.0) || config_.ac_hi_frac > 1.0 ||
      config_.ac_hi_frac < config_.ac_lo_frac) {
    throw std::invalid_argument("Simulator: bad actual-computation range");
  }
  if (!scheme_.dvs || !scheme_.priority || !scheme_.estimator) {
    throw std::invalid_argument("Simulator: scheme has null components");
  }
  // Fail on a bad arrival model/params at construction, not mid-run
  // inside a worker thread.
  arrival::validate(config_.arrival);

  // Gather the immutable per-graph/per-node facts once. The values are
  // computed with exactly the expressions the scheduling loop used to
  // evaluate in place (same folds, same hash chains), so reading them
  // from here is bit-identical to re-deriving them.
  auto& statics = scratch_->statics;
  statics.resize(set_.size());
  for (std::size_t gi = 0; gi < set_.size(); ++gi) {
    const auto& graph = set_.graph(gi);
    auto& gs = statics[gi];
    gs.period_s = graph.period();
    gs.deadline_s = graph.deadline();
    gs.total_wc_cycles = graph.total_wcet_cycles();
    gs.nodes.resize(graph.node_count());
    for (tg::NodeId id = 0; id < graph.node_count(); ++id) {
      auto& ns = gs.nodes[id];
      ns.wc = graph.node(id).wcet_cycles;
      ns.pred_count = static_cast<int>(graph.predecessors(id).size());
      std::uint64_t key =
          util::Rng::hash_combine(config_.seed, 0x7a5c0ffeULL);
      key = util::Rng::hash_combine(key, static_cast<std::uint64_t>(gi));
      key = util::Rng::hash_combine(key, id);
      ns.draw_key = key;
      if (config_.ac_model == AcModel::kPerNodeMean) {
        util::Rng mean_rng(key);
        ns.mean_frac =
            mean_rng.uniform(config_.ac_lo_frac, config_.ac_hi_frac);
      }
    }
  }
}

Simulator::~Simulator() = default;

SimResult simulate_scheme(const tg::TaskGraphSet& set,
                          const dvs::Processor& proc, core::SchemeKind kind,
                          const SimConfig& config, bat::Battery* battery) {
  core::Scheme scheme = core::make_scheme(kind, proc.fmax_hz(), config.seed);
  Simulator sim(set, proc, scheme, config);
  return sim.run(battery);
}

}  // namespace bas::sim
