#pragma once
// Random task-graph generation in the style of TGFF (Dick & Wolf,
// "Task Graphs For Free"), which the paper uses for all its workloads.
// The original tool is not available offline, so this module reimplements
// its fan-in/fan-out growth method plus two structured alternatives with
// equivalent knobs. See EXPERIMENTS.md, "Substitutions".

#include "taskgraph/graph.hpp"
#include "util/rng.hpp"

namespace bas::tgff {

enum class Method {
  /// TGFF's method: grow the DAG by alternating fan-out expansions from
  /// nodes with spare out-degree and fan-in merges of existing nodes.
  kFanInFanOut,
  /// Nodes arranged in layers; every node in layer l>0 gets at least one
  /// predecessor in layer l-1 plus extra random back edges.
  kLayered,
  /// Random series-parallel graph (single source/sink), a common shape
  /// for media pipelines.
  kSeriesParallel,
};

struct GeneratorParams {
  int node_count = 10;
  Method method = Method::kFanInFanOut;
  /// Degree bounds (respected by kFanInFanOut and kLayered).
  int max_out_degree = 3;
  int max_in_degree = 3;
  /// Worst-case cycles drawn uniformly from [wcet_lo, wcet_hi]
  /// ("the worst case computation of each node was chosen randomly
  /// following a uniform distribution", paper §5).
  double wcet_lo_cycles = 1.0e6;
  double wcet_hi_cycles = 1.0e7;
  /// kLayered: probability of an extra edge from any earlier layer.
  double edge_density = 0.25;
  /// kLayered: target number of layers; <=0 picks ~sqrt(node_count).
  int layer_count = 0;
};

/// Generates one random task graph (period left at 0; assign it via the
/// workload builder or set_period). The result is validated acyclic.
/// Throws std::invalid_argument for nonsensical parameters.
tg::TaskGraph generate(const GeneratorParams& params, util::Rng& rng);

}  // namespace bas::tgff
