// Tests for the early-rejection mapping strategy (Section VI future work).

#include <gtest/gtest.h>

#include "../common/test_graphs.hpp"
#include "daggen/corpus.hpp"
#include "emts/emts.hpp"
#include "sched/list_scheduler.hpp"

namespace ptgsched {
namespace {

using testutil::FixedTimeModel;
using testutil::make_instance;
using testutil::unit_cluster;

TEST(BoundedMapping, InfiniteBoundMatchesExact) {
  const Ptg g = testutil::diamond();
  const Cluster c = unit_cluster(4);
  const FixedTimeModel model;
  ListScheduler sched(make_instance(g, model, c));
  const Allocation alloc{1, 1, 1, 1};
  const double exact = sched.makespan(alloc);
  EXPECT_DOUBLE_EQ(
      sched.makespan_bounded(alloc,
                             std::numeric_limits<double>::infinity()),
      exact);
  EXPECT_EQ(sched.rejected_count(), 0u);
}

TEST(BoundedMapping, GenerousBoundMatchesExact) {
  const Ptg g = testutil::chain3();
  const Cluster c = unit_cluster(2);
  const FixedTimeModel model;
  ListScheduler sched(make_instance(g, model, c));
  const Allocation alloc{1, 1, 1};
  EXPECT_DOUBLE_EQ(sched.makespan_bounded(alloc, 100.0), 6.0);
  // A bound exactly at the makespan is not exceeded -> no rejection.
  EXPECT_DOUBLE_EQ(sched.makespan_bounded(alloc, 6.0), 6.0);
  EXPECT_EQ(sched.rejected_count(), 0u);
}

TEST(BoundedMapping, TightBoundRejects) {
  const Ptg g = testutil::chain3();
  const Cluster c = unit_cluster(2);
  const FixedTimeModel model;
  ListScheduler sched(make_instance(g, model, c));
  const Allocation alloc{1, 1, 1};
  EXPECT_TRUE(std::isinf(sched.makespan_bounded(alloc, 5.9)));
  EXPECT_EQ(sched.rejected_count(), 1u);
  // Rejection happens at the very first task: its start (0) + bottom
  // level (6) already exceeds the bound.
  EXPECT_TRUE(std::isinf(sched.makespan_bounded(alloc, 0.5)));
  EXPECT_EQ(sched.rejected_count(), 2u);
}

TEST(BoundedMapping, RejectionIsSound) {
  // Whenever the bounded evaluation rejects, the exact makespan really
  // does exceed the bound; whenever it returns a number, it is exact.
  const auto graphs = irregular_corpus(40, 4, 91);
  const Cluster c = chti();
  const SyntheticModel model;
  for (const auto& g : graphs) {
    ListScheduler sched(make_instance(g, model, c));
    Rng rng(g.num_tasks());
    for (int trial = 0; trial < 10; ++trial) {
      Allocation alloc(g.num_tasks());
      for (auto& s : alloc) {
        s = static_cast<int>(rng.uniform_int(1, c.num_processors()));
      }
      const double exact = sched.makespan(alloc);
      const double bound = exact * rng.uniform_real(0.5, 1.5);
      const double bounded = sched.makespan_bounded(alloc, bound);
      if (std::isinf(bounded)) {
        EXPECT_GT(exact, bound);
      } else {
        EXPECT_DOUBLE_EQ(bounded, exact);
      }
    }
  }
}

TEST(EmtsRejection, BestResultUnchanged) {
  // The incumbent bound only discards individuals worse than the previous
  // generation's best, so the final best allocation is identical with and
  // without rejection (single-threaded).
  const auto graphs = irregular_corpus(60, 4, 92);
  const Cluster c = grelon();
  const SyntheticModel model;
  for (const auto& g : graphs) {
    EmtsConfig cfg = emts5_config();
    cfg.seed = 5;
    const auto pi = make_instance(g, model, c);
    const EmtsResult plain = Emts(cfg).schedule(pi);
    cfg.use_rejection = true;
    const EmtsResult rejecting = Emts(cfg).schedule(pi);
    EXPECT_DOUBLE_EQ(plain.makespan, rejecting.makespan) << g.name();
    EXPECT_EQ(plain.best_allocation, rejecting.best_allocation) << g.name();
  }
}

TEST(EmtsRejection, ActuallyRejectsSomething) {
  Rng rng(3);
  const Ptg g = make_fft_ptg(16, rng);
  const Cluster c = grelon();
  const SyntheticModel model;
  EmtsConfig cfg = emts10_config();
  cfg.seed = 6;
  cfg.use_rejection = true;
  const EmtsResult r = Emts(cfg).schedule(make_instance(g, model, c));
  EXPECT_GT(r.rejected_evaluations, 0u);
  EXPECT_LT(r.rejected_evaluations, r.es.evaluations);
}

TEST(EmtsRejection, DisabledMeansZeroRejections) {
  Rng rng(4);
  const Ptg g = make_fft_ptg(8, rng);
  const Cluster c = chti();
  const AmdahlModel model;
  EmtsConfig cfg = emts5_config();
  cfg.seed = 7;
  const EmtsResult r = Emts(cfg).schedule(make_instance(g, model, c));
  EXPECT_EQ(r.rejected_evaluations, 0u);
}

}  // namespace
}  // namespace ptgsched
