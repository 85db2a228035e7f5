// Unit tests for the task-graph substrate: construction, validation,
// topological ordering, the topological-order check, and the task-graph
// set.

#include <gtest/gtest.h>

#include <stdexcept>

#include "taskgraph/algorithms.hpp"
#include "taskgraph/graph.hpp"
#include "taskgraph/set.hpp"

namespace bas {
namespace {

tg::TaskGraph diamond() {
  //      0
  //     / \
  //    1   2
  //     \ /
  //      3
  tg::TaskGraph g(10.0, "diamond");
  g.add_node(1e6);
  g.add_node(2e6);
  g.add_node(3e6);
  g.add_node(4e6);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 3);
  g.add_edge(2, 3);
  return g;
}

TEST(TaskGraph, BasicConstruction) {
  const auto g = diamond();
  EXPECT_EQ(g.node_count(), 4u);
  EXPECT_EQ(g.edge_count(), 4u);
  EXPECT_DOUBLE_EQ(g.period(), 10.0);
  EXPECT_DOUBLE_EQ(g.deadline(), 10.0);
  EXPECT_DOUBLE_EQ(g.total_wcet_cycles(), 1e7);
  EXPECT_NO_THROW(g.validate());
}

TEST(TaskGraph, AdjacencyIsSymmetricallyRecorded) {
  const auto g = diamond();
  EXPECT_EQ(g.successors(0).size(), 2u);
  EXPECT_EQ(g.predecessors(3).size(), 2u);
  EXPECT_EQ(g.predecessors(0).size(), 0u);
  EXPECT_EQ(g.successors(3).size(), 0u);
}

TEST(TaskGraph, DuplicateEdgeIgnored) {
  auto g = diamond();
  const auto before = g.edge_count();
  g.add_edge(0, 1);
  EXPECT_EQ(g.edge_count(), before);
}

TEST(TaskGraph, SelfLoopRejected) {
  auto g = diamond();
  EXPECT_THROW(g.add_edge(1, 1), std::invalid_argument);
}

TEST(TaskGraph, UnknownNodeRejected) {
  auto g = diamond();
  EXPECT_THROW(g.add_edge(0, 99), std::out_of_range);
}

TEST(TaskGraph, CycleDetected) {
  tg::TaskGraph g(1.0);
  g.add_node(1e6);
  g.add_node(1e6);
  g.add_node(1e6);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 0);
  EXPECT_FALSE(g.is_acyclic());
  EXPECT_THROW(g.topological_order(), std::logic_error);
  EXPECT_THROW(g.validate(), std::logic_error);
}

TEST(TaskGraph, TopologicalOrderIsValidAndDeterministic) {
  const auto g = diamond();
  const auto order = g.topological_order();
  EXPECT_TRUE(tg::is_topological_order(g, order));
  EXPECT_EQ(order, g.topological_order());
  EXPECT_EQ(order.front(), 0u);
  EXPECT_EQ(order.back(), 3u);
}

TEST(TaskGraph, SourcesAndSinks) {
  const auto g = diamond();
  EXPECT_EQ(g.sources(), std::vector<tg::NodeId>{0});
  EXPECT_EQ(g.sinks(), std::vector<tg::NodeId>{3});
}

TEST(TaskGraph, ScaleWcet) {
  auto g = diamond();
  g.scale_wcet(2.0);
  EXPECT_DOUBLE_EQ(g.total_wcet_cycles(), 2e7);
  EXPECT_THROW(g.scale_wcet(0.0), std::invalid_argument);
}

TEST(TaskGraph, ValidateRejectsBadInputs) {
  tg::TaskGraph empty(1.0);
  EXPECT_THROW(empty.validate(), std::logic_error);

  tg::TaskGraph no_period;
  no_period.add_node(1e6);
  EXPECT_THROW(no_period.validate(), std::logic_error);

  tg::TaskGraph zero_wc(1.0);
  zero_wc.add_node(0.0);
  EXPECT_THROW(zero_wc.validate(), std::logic_error);
}

TEST(Algorithms, IsTopologicalOrderRejectsBadOrders) {
  const auto g = diamond();
  EXPECT_FALSE(tg::is_topological_order(g, {3, 1, 2, 0}));
  EXPECT_FALSE(tg::is_topological_order(g, {0, 1, 2}));        // wrong size
  EXPECT_FALSE(tg::is_topological_order(g, {0, 1, 1, 3}));     // duplicate
  EXPECT_TRUE(tg::is_topological_order(g, {0, 2, 1, 3}));
}

TEST(TaskGraphSet, UtilizationSumsGraphs) {
  tg::TaskGraphSet set;
  tg::TaskGraph a(1.0);
  a.add_node(3e8);  // 0.3 at 1 GHz
  tg::TaskGraph b(2.0);
  b.add_node(8e8);  // 0.4 at 1 GHz
  set.add(std::move(a));
  set.add(std::move(b));
  EXPECT_NEAR(set.utilization(1e9), 0.7, 1e-12);
  EXPECT_EQ(set.total_nodes(), 2u);
  EXPECT_NO_THROW(set.validate());
}

TEST(TaskGraphSet, EmptySetInvalid) {
  tg::TaskGraphSet set;
  EXPECT_THROW(set.validate(), std::logic_error);
  EXPECT_THROW(set.utilization(0.0), std::invalid_argument);
}

}  // namespace
}  // namespace bas
