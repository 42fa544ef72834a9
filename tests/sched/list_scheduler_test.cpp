// Tests for the list-scheduling mapping function (Section III-A): exact
// schedules on hand-built graphs plus validity properties on random ones.

#include "sched/list_scheduler.hpp"

#include <gtest/gtest.h>

#include "../common/test_graphs.hpp"
#include "daggen/corpus.hpp"
#include "sched/validate.hpp"

namespace ptgsched {
namespace {

using testutil::FixedTimeModel;
using testutil::LinearSpeedupModel;
using testutil::make_instance;
using testutil::unit_cluster;

TEST(ListScheduler, ChainRunsSequentially) {
  const Ptg g = testutil::chain3();  // times 1, 2, 3
  const Cluster c = unit_cluster(4);
  const FixedTimeModel model;
  ListScheduler sched(make_instance(g, model, c));
  EXPECT_DOUBLE_EQ(sched.makespan({1, 1, 1}), 6.0);

  const Schedule s = sched.build_schedule({1, 1, 1});
  EXPECT_DOUBLE_EQ(s.placement(0).start, 0.0);
  EXPECT_DOUBLE_EQ(s.placement(1).start, 1.0);
  EXPECT_DOUBLE_EQ(s.placement(2).start, 3.0);
  EXPECT_DOUBLE_EQ(s.placement(2).finish, 6.0);
}

TEST(ListScheduler, IndependentTasksRunConcurrently) {
  const Ptg g = testutil::two_chains();  // chains (2,2) and (3,3)
  const Cluster c = unit_cluster(2);
  const FixedTimeModel model;
  ListScheduler sched(make_instance(g, model, c));
  EXPECT_DOUBLE_EQ(sched.makespan({1, 1, 1, 1}), 6.0);
}

TEST(ListScheduler, SerializesWhenProcessorsScarce) {
  const Ptg g = testutil::two_chains();
  const Cluster c = unit_cluster(1);
  const FixedTimeModel model;
  ListScheduler sched(make_instance(g, model, c));
  // One processor: total work 2+2+3+3 = 10.
  EXPECT_DOUBLE_EQ(sched.makespan({1, 1, 1, 1}), 10.0);
}

TEST(ListScheduler, DiamondWithWideAllocation) {
  const Ptg g = testutil::diamond();  // s=1, l=4, r=2, t=1
  const Cluster c = unit_cluster(4);
  const LinearSpeedupModel model;
  ListScheduler sched(make_instance(g, model, c));
  // s on 4 procs: 0.25; l on 2: 2.0; r on 2: 1.0; t on 4: 0.25.
  // l and r run concurrently -> makespan 0.25 + max(2,1) + 0.25 = 2.5.
  EXPECT_DOUBLE_EQ(sched.makespan({4, 2, 2, 4}), 2.5);
}

TEST(ListScheduler, WideTaskWaitsForEnoughProcessors) {
  // fork_join(2) with workers on 1 proc each and sink needing all 2:
  // the sink waits for both workers.
  const Ptg g = testutil::fork_join(2);  // src=1, w=2 each, sink=1
  const Cluster c = unit_cluster(2);
  const FixedTimeModel model;
  ListScheduler sched(make_instance(g, model, c));
  // src(1) -> workers in parallel (2) -> sink (1): makespan 4.
  EXPECT_DOUBLE_EQ(sched.makespan({1, 1, 1, 2}), 4.0);
}

TEST(ListScheduler, HigherBottomLevelGoesFirst) {
  // Two ready tasks, one processor: the task heading the longer remaining
  // chain (higher bottom level) must be scheduled first.
  const Ptg g = testutil::two_chains();  // b-chain longer
  const Cluster c = unit_cluster(1);
  const FixedTimeModel model;
  ListScheduler sched(make_instance(g, model, c));
  const Schedule s = sched.build_schedule({1, 1, 1, 1});
  EXPECT_LT(s.placement(2).start, s.placement(0).start);  // b0 before a0
}

TEST(ListScheduler, ProcessorSetIsContiguousInAvailability) {
  const Ptg g = testutil::fork_join(3);
  const Cluster c = unit_cluster(4);
  const FixedTimeModel model;
  ListScheduler sched(make_instance(g, model, c));
  const Schedule s = sched.build_schedule({4, 1, 1, 1, 4});
  // src occupies all 4 processors; workers then occupy distinct ones.
  std::set<int> used;
  for (TaskId w = 1; w <= 3; ++w) {
    for (const int p : s.placement(w).processors) {
      EXPECT_TRUE(used.insert(p).second) << "worker processors overlap";
    }
  }
}

TEST(ListScheduler, MakespanMatchesBuildSchedule) {
  Rng unused(0);
  const auto graphs = irregular_corpus(40, 4, 11);
  const Cluster c = platform_by_name("chti");
  const AmdahlModel model;
  for (const auto& g : graphs) {
    ListScheduler sched(make_instance(g, model, c));
    Allocation alloc(g.num_tasks());
    Rng rng(g.num_tasks());
    for (auto& s : alloc) {
      s = static_cast<int>(rng.uniform_int(1, c.num_processors()));
    }
    EXPECT_DOUBLE_EQ(sched.makespan(alloc),
                     sched.build_schedule(alloc).makespan());
  }
}

TEST(ListScheduler, ReusableAcrossAllocations) {
  const Ptg g = testutil::diamond();
  const Cluster c = unit_cluster(8);
  const LinearSpeedupModel model;
  ListScheduler sched(make_instance(g, model, c));
  const double m1 = sched.makespan({1, 1, 1, 1});
  (void)sched.makespan({8, 8, 8, 8});
  EXPECT_DOUBLE_EQ(sched.makespan({1, 1, 1, 1}), m1);  // no state leakage
}

TEST(ListScheduler, RejectsInvalidAllocation) {
  const Ptg g = testutil::chain3();
  const Cluster c = unit_cluster(4);
  const FixedTimeModel model;
  ListScheduler sched(make_instance(g, model, c));
  EXPECT_THROW((void)sched.makespan({1, 1}), GraphError);
  EXPECT_THROW((void)sched.makespan({1, 1, 9}), GraphError);
}

TEST(ListScheduler, RejectsInvalidGraph) {
  Ptg g;
  g.add_task(testutil::simple_task("a", 0.0));  // bad flops
  const Cluster c = unit_cluster(2);
  const FixedTimeModel model;
  EXPECT_THROW(ListScheduler(make_instance(g, model, c)), GraphError);
}

TEST(ListScheduler, BestFitNeverWorseOnSmallCases) {
  // Both policies must produce *valid* schedules; best-fit preserves
  // early-free processors so a later ready task can start earlier or at
  // the same time on this fork-join shape.
  const Ptg g = testutil::fork_join(3);
  const Cluster c = unit_cluster(4);
  const LinearSpeedupModel model;
  const auto pi = make_instance(g, model, c);
  ListScheduler earliest(pi, {ProcessorSelection::EarliestAvailable});
  ListScheduler bestfit(pi, {ProcessorSelection::BestFit});
  const Allocation alloc{2, 2, 1, 1, 4};
  const double me = earliest.makespan(alloc);
  const double mb = bestfit.makespan(alloc);
  EXPECT_GT(me, 0.0);
  EXPECT_GT(mb, 0.0);
}

TEST(ListScheduler, BestFitSchedulesAreValid) {
  const auto graphs = layered_corpus(50, 3, 21);
  const Cluster c = platform_by_name("chti");
  const SyntheticModel model;
  for (const auto& g : graphs) {
    ListScheduler sched(make_instance(g, model, c),
                        {ProcessorSelection::BestFit});
    const Allocation alloc = uniform_allocation(g, c, 3);
    const Schedule s = sched.build_schedule(alloc);
    EXPECT_NO_THROW(validate_schedule(s, g, alloc, model, c));
  }
}

// Property sweep: schedules from random allocations on random graphs are
// always valid and match the fast-path makespan.
class ListSchedulerProperty
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ListSchedulerProperty, RandomAllocationsProduceValidSchedules) {
  const auto [graph_seed, procs] = GetParam();
  Rng rng(static_cast<std::uint64_t>(graph_seed));
  RandomDagParams params;
  params.num_tasks = 35;
  params.jump = graph_seed % 3;
  params.width = 0.6;
  const Ptg g = make_random_ptg(params, rng);
  const Cluster c = unit_cluster(procs);
  const SyntheticModel model;
  ListScheduler sched(make_instance(g, model, c));
  for (int trial = 0; trial < 5; ++trial) {
    Allocation alloc(g.num_tasks());
    for (auto& s : alloc) {
      s = static_cast<int>(rng.uniform_int(1, procs));
    }
    const Schedule s = sched.build_schedule(alloc);
    EXPECT_NO_THROW(validate_schedule(s, g, alloc, model, c));
    EXPECT_DOUBLE_EQ(s.makespan(), sched.makespan(alloc));
    // Makespan can never beat the critical path lower bound.
    EXPECT_GE(s.makespan(),
              allocation_critical_path(g, alloc, model, c) - 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomGraphs, ListSchedulerProperty,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5),
                       ::testing::Values(3, 16, 64)));

}  // namespace
}  // namespace ptgsched
