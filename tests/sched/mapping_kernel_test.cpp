// Tests for the shared MappingKernel: the full pass must match the
// preserved ReferenceMapper oracle bit for bit (value, schedule and
// rejection count) on every corpus class and on a graph of more than
// 65,536 tasks, single- and multi-cluster schedulers must agree on a
// one-cluster platform (they run the same engine), the value and
// placement paths must report bit-identical makespans for both
// processor-selection policies, and the rejection counter must support
// exact reset semantics.

#include "sched/mapping_kernel.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <string>

#include "../common/reference_mapper.hpp"
#include "../common/test_graphs.hpp"
#include "core/problem_instance.hpp"
#include "daggen/corpus.hpp"
#include "sched/list_scheduler.hpp"
#include "sched/multi_cluster_scheduler.hpp"
#include "sched/validate.hpp"
#include "support/rng.hpp"

namespace ptgsched {
namespace {

using testutil::FixedTimeModel;
using testutil::LinearSpeedupModel;
using testutil::make_instance;
using testutil::unit_cluster;

constexpr double kInf = std::numeric_limits<double>::infinity();

Allocation random_allocation(const Ptg& g, int max_size, Rng& rng) {
  Allocation alloc(g.num_tasks());
  for (auto& s : alloc) s = static_cast<int>(rng.uniform_int(1, max_size));
  return alloc;
}

/// Layers of `width` tasks; every task below the first layer depends on
/// one or two random tasks of the layer above. Small integer flops and a
/// perfectly scalable model leave many equal bottom levels, so the id
/// tie-break is exercised across the whole id range.
Ptg layered_graph(std::size_t layers, std::size_t width, Rng& rng) {
  Ptg g("layered-" + std::to_string(layers * width));
  for (std::size_t l = 0; l < layers; ++l) {
    for (std::size_t i = 0; i < width; ++i) {
      const TaskId v = g.add_task(testutil::simple_task(
          "t", static_cast<double>(rng.uniform_int(1, 8))));
      if (l == 0) continue;
      const auto above = static_cast<TaskId>((l - 1) * width);
      const auto a = static_cast<TaskId>(rng.index(width));
      const auto b = static_cast<TaskId>(rng.index(width));
      g.add_edge(above + a, v);
      if (b != a && rng.index(2) == 0) g.add_edge(above + b, v);
    }
  }
  return g;
}

/// The full pass against the ReferenceMapper oracle on random
/// allocations: value, bounded runs below, at and above the exact value
/// (so the rejection decision and count too), and per-task placements,
/// which must also form a valid schedule.
void expect_oracle_agreement(
    const std::shared_ptr<const ProblemInstance>& pi,
    ListSchedulerOptions opts, Rng& rng, const std::string& label,
    int trials = 8) {
  ListScheduler sched(pi, opts);
  ReferenceMapper oracle(pi, opts);
  const int P = pi->num_processors();
  for (int trial = 0; trial < trials; ++trial) {
    const Allocation alloc = random_allocation(pi->graph(), P, rng);
    const double want = oracle.makespan(alloc);
    ASSERT_EQ(want, sched.makespan(alloc)) << label;
    for (const double factor : {0.8, 1.0, 1.2}) {
      ASSERT_EQ(oracle.makespan_bounded(alloc, want * factor),
                sched.makespan_bounded(alloc, want * factor))
          << label << " bound factor " << factor;
    }
    const Schedule want_placed = oracle.build_schedule(alloc);
    const Schedule placed = sched.build_schedule(alloc);
    for (const PlacedTask& t : want_placed.placed()) {
      const PlacedTask& h = placed.placement(t.task);
      ASSERT_EQ(t.start, h.start) << label << " task " << t.task;
      ASSERT_EQ(t.finish, h.finish) << label << " task " << t.task;
      ASSERT_EQ(t.processors, h.processors) << label << " task " << t.task;
    }
    validate_schedule(placed, pi->graph(), alloc, pi->model(),
                      pi->cluster());
  }
  EXPECT_EQ(oracle.rejected_count(), sched.rejected_count()) << label;
  EXPECT_GT(sched.rejected_count(), 0u) << label;
}

TEST(MappingKernel, FullPassMatchesReferenceMapperOracle) {
  const Cluster c = chti();
  const SyntheticModel model;
  // Equal-cost workers on a fixed-time model: every worker has the same
  // bottom level, so the pop order rests on the id tie-break alone.
  const Ptg ties = testutil::fork_join(8);
  const Cluster unit = unit_cluster(4);
  const FixedTimeModel fixed;
  for (const ProcessorSelection policy :
       {ProcessorSelection::EarliestAvailable, ProcessorSelection::BestFit}) {
    ListSchedulerOptions opts;
    opts.selection = policy;
    for (const char* cls : {"fft", "strassen", "layered", "irregular"}) {
      for (const auto& g : corpus_by_name(cls, 40, 2, 903)) {
        Rng rng(derive_seed(44, g.num_tasks(),
                            static_cast<std::uint64_t>(policy)));
        expect_oracle_agreement(make_instance(g, model, c), opts,
                                rng, cls);
      }
    }
    Rng rng(derive_seed(45, static_cast<std::uint64_t>(policy)));
    expect_oracle_agreement(make_instance(ties, fixed, unit), opts,
                            rng, "fork-join ties");
  }
}

TEST(MappingKernel, LargeGraphMatchesOracle) {
  // Past the 65,535-task boundary where a 16-bit task index would wrap.
  Rng graph_rng(46);
  const auto pi = make_instance(layered_graph(720, 100, graph_rng),
                                LinearSpeedupModel{}, unit_cluster(6));
  ASSERT_GT(pi->num_tasks(), 65536u);
  for (const ProcessorSelection policy :
       {ProcessorSelection::EarliestAvailable, ProcessorSelection::BestFit}) {
    ListSchedulerOptions opts;
    opts.selection = policy;
    Rng rng(derive_seed(47, static_cast<std::uint64_t>(policy)));
    expect_oracle_agreement(pi, opts, rng, "layered-72000", 1);
  }
}

TEST(MappingKernel, EarliestStartIsAPureQuery) {
  const Ptg g = testutil::chain3();
  const Cluster c = unit_cluster(4);
  const FixedTimeModel model;
  const auto pi = make_instance(g, model, c);
  MappingKernel core(*pi, {MappingLane{4, 0}});
  // Probing must not mutate lane state: repeated queries agree.
  EXPECT_DOUBLE_EQ(core.earliest_start(0, 2, 1.5), 1.5);
  EXPECT_DOUBLE_EQ(core.earliest_start(0, 2, 1.5), 1.5);
  EXPECT_DOUBLE_EQ(core.earliest_start(0, 4, 0.0), 0.0);
}

TEST(MappingKernel, SingleAndMultiClusterAgreeOnOneClusterPlatform) {
  const auto graphs = irregular_corpus(40, 3, 77);
  const Cluster c = chti();
  const SyntheticModel model;
  for (const auto& g : graphs) {
    const auto pi = make_instance(g, model, c);
    // One lane: the multi-cluster mapping over the same single instance.
    const std::vector<std::shared_ptr<const ProblemInstance>> clusters{pi};
    ListScheduler single(pi);
    Rng rng(g.num_tasks());
    for (int trial = 0; trial < 5; ++trial) {
      const Allocation alloc =
          random_allocation(g, c.num_processors(), rng);
      // The multi-cluster engine takes explicit priority times; feed it
      // the same per-allocation times the single-cluster engine derives.
      std::vector<double> times(g.num_tasks());
      McAllocation mc;
      mc.sizes.assign(g.num_tasks(), std::vector<int>(1));
      for (TaskId v = 0; v < g.num_tasks(); ++v) {
        times[v] = pi->time(v, alloc[v]);
        mc.sizes[v][0] = alloc[v];
      }
      const Schedule s1 = single.build_schedule(alloc);
      const Schedule s2 = map_mc_allocation(mc, clusters, times);
      ASSERT_EQ(s1.num_tasks(), s2.num_tasks());
      EXPECT_DOUBLE_EQ(s1.makespan(), s2.makespan());
      for (TaskId v = 0; v < g.num_tasks(); ++v) {
        EXPECT_DOUBLE_EQ(s1.placement(v).start, s2.placement(v).start);
        EXPECT_DOUBLE_EQ(s1.placement(v).finish, s2.placement(v).finish);
        EXPECT_EQ(s1.placement(v).processors, s2.placement(v).processors);
      }
    }
  }
}

TEST(MappingKernel, ValueAndPlacementPathsAgreeForBothPolicies) {
  const auto graphs = irregular_corpus(50, 3, 78);
  const Cluster c = chti();
  const SyntheticModel model;
  for (const ProcessorSelection policy :
       {ProcessorSelection::EarliestAvailable, ProcessorSelection::BestFit}) {
    ListSchedulerOptions opts;
    opts.selection = policy;
    for (const auto& g : graphs) {
      ListScheduler sched(make_instance(g, model, c), opts);
      Rng rng(g.num_tasks() + static_cast<std::size_t>(policy));
      for (int trial = 0; trial < 5; ++trial) {
        const Allocation alloc =
            random_allocation(g, c.num_processors(), rng);
        const Schedule s = sched.build_schedule(alloc);
        // Value path (no Schedule) and placement path must match bit for
        // bit: the multiset of free times evolves identically.
        EXPECT_DOUBLE_EQ(sched.makespan(alloc), s.makespan());
        validate_schedule(s, g, alloc, model, c);
      }
    }
  }
}

TEST(MappingKernel, RejectionCounterResetsExactly) {
  const Ptg g = testutil::chain3();  // sequential: makespan 6 on all-ones
  const Cluster c = unit_cluster(2);
  const FixedTimeModel model;
  ListScheduler sched(make_instance(g, model, c));
  const Allocation alloc{1, 1, 1};

  EXPECT_EQ(sched.rejected_count(), 0u);
  EXPECT_TRUE(std::isinf(sched.makespan_bounded(alloc, 1.0)));
  EXPECT_TRUE(std::isinf(sched.makespan_bounded(alloc, 1.0)));
  EXPECT_EQ(sched.rejected_count(), 2u);

  sched.reset_stats();
  EXPECT_EQ(sched.rejected_count(), 0u);

  // Counting restarts from zero, not from a lifetime offset.
  EXPECT_TRUE(std::isinf(sched.makespan_bounded(alloc, 1.0)));
  EXPECT_EQ(sched.rejected_count(), 1u);
  EXPECT_DOUBLE_EQ(sched.makespan_bounded(alloc, kInf), 6.0);
  EXPECT_EQ(sched.rejected_count(), 1u);  // accepted runs don't count
}

TEST(MappingKernel, SchedulersShareInstanceAcrossConstructions) {
  const Ptg g = testutil::diamond();
  const Cluster c = unit_cluster(4);
  const FixedTimeModel model;
  const auto pi = make_instance(g, model, c);
  ListScheduler a(pi);
  ListScheduler b(pi);
  EXPECT_EQ(&a.instance(), &b.instance());
  const Allocation alloc{1, 2, 2, 1};
  EXPECT_DOUBLE_EQ(a.makespan(alloc), b.makespan(alloc));
}

}  // namespace
}  // namespace ptgsched
