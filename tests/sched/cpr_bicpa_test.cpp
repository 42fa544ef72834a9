// Tests for the CPR (one-step) and BiCPA baselines.

#include <gtest/gtest.h>

#include "../common/test_graphs.hpp"
#include "daggen/corpus.hpp"
#include "heuristics/bicpa.hpp"
#include "heuristics/cpa.hpp"
#include "heuristics/cpr.hpp"
#include "heuristics/delta_critical.hpp"
#include "sched/list_scheduler.hpp"
#include "sched/validate.hpp"

namespace ptgsched {
namespace {

using testutil::make_instance;

TEST(Cpr, FactoryName) {
  EXPECT_EQ(CprAllocation().name(), "cpr");
  EXPECT_EQ(BicpaAllocation().name(), "bicpa");
}

TEST(Cpr, AllocationsValidAndMappable) {
  const auto graphs = irregular_corpus(30, 3, 81);
  const Cluster c = chti();
  const SyntheticModel model;
  const CprAllocation cpr;
  for (const auto& g : graphs) {
    const auto pi = make_instance(g, model, c);
    const Allocation alloc = cpr.allocate(*pi);
    validate_allocation(alloc, g, c);
    const Schedule s = ListScheduler(pi).build_schedule(alloc);
    EXPECT_NO_THROW(validate_schedule(s, g, alloc, model, c));
  }
}

TEST(Cpr, NeverWorseThanSequentialMapping) {
  // CPR starts from the all-ones allocation and only accepts improving
  // moves, so its mapped makespan is <= the all-ones makespan.
  const auto graphs = layered_corpus(30, 4, 82);
  const Cluster c = chti();
  const AmdahlModel model;
  const CprAllocation cpr;
  for (const auto& g : graphs) {
    const auto pi = make_instance(g, model, c);
    ListScheduler sched(pi);
    const double seq = sched.makespan(Allocation(g.num_tasks(), 1));
    const double m = sched.makespan(cpr.allocate(*pi));
    EXPECT_LE(m, seq + 1e-9) << g.name();
  }
}

TEST(Cpr, BeatsCpaOnMappedMakespanMostly) {
  // One-step algorithms "produce short schedules" (Section II-B): CPR,
  // which optimizes the real mapped makespan, should on average beat the
  // two-step CPA on the same instances.
  const auto graphs = irregular_corpus(40, 6, 83);
  const Cluster c = chti();
  const AmdahlModel model;
  double cpr_sum = 0.0;
  double cpa_sum = 0.0;
  for (const auto& g : graphs) {
    const auto pi = make_instance(g, model, c);
    ListScheduler sched(pi);
    cpr_sum += sched.makespan(CprAllocation().allocate(*pi));
    cpa_sum += sched.makespan(CpaAllocation().allocate(*pi));
  }
  EXPECT_LE(cpr_sum, cpa_sum * 1.02);
}

TEST(Cpr, SingleTaskGetsBestAllocation) {
  Ptg g;
  Task t = testutil::simple_task("solo", 100.0);
  t.alpha = 0.0;
  g.add_task(t);
  const Cluster c = testutil::unit_cluster(8);
  const testutil::LinearSpeedupModel model;
  const Allocation alloc =
      CprAllocation().allocate(*make_instance(g, model, c));
  EXPECT_EQ(alloc[0], 8);  // perfectly scalable: grow to the whole machine
}

TEST(Bicpa, AllocationsValidOnCorpus) {
  const auto graphs = layered_corpus(30, 3, 84);
  const Cluster c = chti();
  const SyntheticModel model;
  const BicpaAllocation bicpa;
  for (const auto& g : graphs) {
    const Allocation alloc = bicpa.allocate(*make_instance(g, model, c));
    validate_allocation(alloc, g, c);
  }
}

TEST(Bicpa, NeverWorseThanCpaMapped) {
  // BiCPA evaluates the CPA operating point (b = P) among its candidates,
  // so its mapped makespan cannot exceed CPA's.
  const auto graphs = irregular_corpus(40, 5, 85);
  const Cluster c = chti();
  const AmdahlModel model;
  for (const auto& g : graphs) {
    const auto pi = make_instance(g, model, c);
    ListScheduler sched(pi);
    const double bicpa =
        sched.makespan(BicpaAllocation().allocate(*pi));
    const double cpa = sched.makespan(CpaAllocation().allocate(*pi));
    EXPECT_LE(bicpa, cpa + 1e-9) << g.name();
  }
}

TEST(Bicpa, StrideCoversFullSweepEndpoint) {
  // With a coarse stride the b = P candidate must still be evaluated, so
  // the stride variant also never loses to CPA.
  const auto graphs = irregular_corpus(40, 3, 86);
  const Cluster c = chti();
  const AmdahlModel model;
  const BicpaAllocation coarse(7);
  for (const auto& g : graphs) {
    const auto pi = make_instance(g, model, c);
    ListScheduler sched(pi);
    EXPECT_LE(sched.makespan(coarse.allocate(*pi)),
              sched.makespan(CpaAllocation().allocate(*pi)) + 1e-9);
  }
}

TEST(Bicpa, RejectsBadStride) {
  EXPECT_THROW(BicpaAllocation(0), std::invalid_argument);
  EXPECT_THROW(BicpaAllocation(-3), std::invalid_argument);
}

TEST(CprBicpa, DiamondBehaviour) {
  // BiCPA dominates CPA by construction. CPR is greedy over single
  // allocation changes and can plateau on the diamond (shortening the
  // makespan may require growing BOTH branches at once), so for CPR only
  // the improvement over the sequential mapping is guaranteed.
  const Ptg g = testutil::diamond();
  const Cluster c = testutil::unit_cluster(8);
  const AmdahlModel model;
  const auto pi = make_instance(g, model, c);
  ListScheduler sched(pi);
  const double seq = sched.makespan(Allocation(g.num_tasks(), 1));
  const double cpr = sched.makespan(CprAllocation().allocate(*pi));
  const double bicpa =
      sched.makespan(BicpaAllocation().allocate(*pi));
  const double cpa = sched.makespan(CpaAllocation().allocate(*pi));
  EXPECT_LT(cpr, seq);
  EXPECT_LE(bicpa, cpa + 1e-9);
}

}  // namespace
}  // namespace ptgsched
