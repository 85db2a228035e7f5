#pragma once
// Order checks on task graphs beyond the basics TaskGraph itself
// offers: the Table 1 exhaustive search validates every order it is
// asked to evaluate.

#include <vector>

#include "taskgraph/graph.hpp"

namespace bas::tg {

/// True when `order` is a valid topological order of g.
bool is_topological_order(const TaskGraph& g,
                          const std::vector<NodeId>& order);

}  // namespace bas::tg
