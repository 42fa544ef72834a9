// Tests for graph algorithms: topological order, levels, bottom levels,
// critical path.

#include "ptg/algorithms.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "../common/test_graphs.hpp"
#include "daggen/corpus.hpp"

namespace ptgsched {
namespace {

TaskTimeFn unit_time() {
  return [](TaskId) { return 1.0; };
}

TaskTimeFn flops_time(const Ptg& g) {
  return [&g](TaskId v) { return g.task(v).flops; };
}

TEST(TopologicalOrder, RespectsEdges) {
  const Ptg g = testutil::diamond();
  const auto order = topological_order(g);
  ASSERT_EQ(order.size(), 4u);
  std::vector<std::size_t> pos(4);
  for (std::size_t i = 0; i < order.size(); ++i) pos[order[i]] = i;
  for (TaskId v = 0; v < g.num_tasks(); ++v) {
    for (const TaskId w : g.successors(v)) EXPECT_LT(pos[v], pos[w]);
  }
}

TEST(TopologicalOrder, DeterministicTieBreak) {
  // Diamond: 0 then {1, 2} in id order, then 3.
  const auto order = topological_order(testutil::diamond());
  EXPECT_EQ(order, (std::vector<TaskId>{0, 1, 2, 3}));
}

TEST(TopologicalOrder, ThrowsOnCycle) {
  Ptg g;
  g.add_task(testutil::simple_task("a", 1));
  g.add_task(testutil::simple_task("b", 1));
  g.add_edge(0, 1);
  g.add_edge(1, 0);
  EXPECT_THROW((void)topological_order(g), GraphError);
  EXPECT_FALSE(is_acyclic(g));
}

TEST(TopologicalOrder, EmptyGraph) {
  const Ptg g;
  EXPECT_TRUE(topological_order(g).empty());
  EXPECT_TRUE(is_acyclic(g));
}

TEST(PrecedenceLevels, DiamondLevels) {
  const auto levels = precedence_levels(testutil::diamond());
  EXPECT_EQ(levels, (std::vector<int>{0, 1, 1, 2}));
  EXPECT_EQ(num_precedence_levels(testutil::diamond()), 3);
}

TEST(PrecedenceLevels, LongestPathSemantics) {
  // a -> b -> d, a -> d: d sits at level 2, not 1.
  Ptg g;
  const TaskId a = g.add_task(testutil::simple_task("a", 1));
  const TaskId b = g.add_task(testutil::simple_task("b", 1));
  const TaskId d = g.add_task(testutil::simple_task("d", 1));
  g.add_edge(a, b);
  g.add_edge(b, d);
  g.add_edge(a, d);
  EXPECT_EQ(precedence_levels(g), (std::vector<int>{0, 1, 2}));
}

TEST(TasksByLevel, GroupsCorrectly) {
  const auto by_level = tasks_by_level(testutil::diamond());
  ASSERT_EQ(by_level.size(), 3u);
  EXPECT_EQ(by_level[0], (std::vector<TaskId>{0}));
  EXPECT_EQ(by_level[1], (std::vector<TaskId>{1, 2}));
  EXPECT_EQ(by_level[2], (std::vector<TaskId>{3}));
}

TEST(BottomLevels, IncludesOwnTime) {
  const Ptg g = testutil::chain3();  // times 1, 2, 3
  const auto bl = bottom_levels(g, flops_time(g));
  EXPECT_DOUBLE_EQ(bl[2], 3.0);
  EXPECT_DOUBLE_EQ(bl[1], 5.0);
  EXPECT_DOUBLE_EQ(bl[0], 6.0);
}

TEST(BottomLevels, TakesMaxOverSuccessors) {
  const Ptg g = testutil::diamond();  // s=1, l=4, r=2, t=1
  const auto bl = bottom_levels(g, flops_time(g));
  EXPECT_DOUBLE_EQ(bl[3], 1.0);
  EXPECT_DOUBLE_EQ(bl[1], 5.0);
  EXPECT_DOUBLE_EQ(bl[2], 3.0);
  EXPECT_DOUBLE_EQ(bl[0], 6.0);  // via the left branch
}

TEST(CriticalPath, LengthAndPath) {
  const Ptg g = testutil::diamond();
  EXPECT_DOUBLE_EQ(critical_path_length(g, flops_time(g)), 6.0);
  EXPECT_EQ(critical_path(g, flops_time(g)), (std::vector<TaskId>{0, 1, 3}));
}

TEST(CriticalPath, MultipleSources) {
  const Ptg g = testutil::two_chains();  // b-chain is longer (3+3 vs 2+2)
  EXPECT_DOUBLE_EQ(critical_path_length(g, flops_time(g)), 6.0);
  EXPECT_EQ(critical_path(g, flops_time(g)), (std::vector<TaskId>{2, 3}));
}

TEST(CriticalPath, SingleNode) {
  Ptg g;
  g.add_task(testutil::simple_task("only", 5));
  EXPECT_DOUBLE_EQ(critical_path_length(g, flops_time(g)), 5.0);
  EXPECT_EQ(critical_path(g, flops_time(g)), (std::vector<TaskId>{0}));
}

TEST(CriticalPath, PathEdgesExist) {
  // Property: consecutive critical-path nodes are connected by edges.
  Rng rng(99);
  RandomDagParams params;
  params.num_tasks = 60;
  params.jump = 2;
  const Ptg g = make_random_ptg(params, rng);
  const auto path = critical_path(g, unit_time());
  ASSERT_FALSE(path.empty());
  for (std::size_t i = 1; i < path.size(); ++i) {
    EXPECT_TRUE(g.has_edge(path[i - 1], path[i]));
  }
  // Path length in unit time equals node count == critical path length.
  EXPECT_DOUBLE_EQ(static_cast<double>(path.size()),
                   critical_path_length(g, unit_time()));
}

TEST(MaxLevelWidth, Diamond) {
  EXPECT_EQ(max_level_width(testutil::diamond()), 2u);
  EXPECT_EQ(max_level_width(testutil::fork_join(6)), 6u);
  EXPECT_EQ(max_level_width(testutil::chain3()), 1u);
}

TEST(BottomLevelsInto, ReusesBuffer) {
  const Ptg g = testutil::chain3();
  const auto topo = topological_order(g);
  std::vector<double> buffer(99, -1.0);
  bottom_levels_into(g, topo, flops_time(g), buffer);
  ASSERT_EQ(buffer.size(), 3u);
  EXPECT_DOUBLE_EQ(buffer[0], 6.0);
}

// Property sweep: on random DAGs bottom levels are consistent with the
// recursive definition.
class BottomLevelProperty : public ::testing::TestWithParam<int> {};

TEST_P(BottomLevelProperty, MatchesRecursiveDefinition) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  RandomDagParams params;
  params.num_tasks = 40;
  params.width = 0.5;
  params.jump = GetParam() % 3;
  const Ptg g = make_random_ptg(params, rng);
  const auto time = flops_time(g);
  const auto bl = bottom_levels(g, time);
  for (TaskId v = 0; v < g.num_tasks(); ++v) {
    double best = 0.0;
    for (const TaskId w : g.successors(v)) best = std::max(best, bl[w]);
    EXPECT_NEAR(bl[v], time(v) + best, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomDags, BottomLevelProperty,
                         ::testing::Range(0, 8));

}  // namespace
}  // namespace ptgsched
