// Heterogeneous-mode identity suite (DESIGN.md §14).
//
// Two families of guarantees. Degeneracy: a heterogeneous platform with
// uniform 1.0 speeds and an all-zero cost matrix must reproduce the
// homogeneous kernel's width-one placements bit for bit (1/1.0 and x+0.0
// are exact in IEEE arithmetic, so this is ASSERT_EQ, not approximate).
// Identity: on genuinely heterogeneous platforms — per-processor speeds,
// with and without link costs — the full pass must agree bitwise with the
// preserved ReferenceMapper oracle, in value AND rejection count, across
// every corpus class and selection policy; and the evaluation engine must
// produce one trajectory at every thread count.

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "../common/reference_mapper.hpp"
#include "../common/test_graphs.hpp"
#include "core/problem_instance.hpp"
#include "daggen/corpus.hpp"
#include "emts/emts.hpp"
#include "model/execution_time.hpp"
#include "sched/list_scheduler.hpp"
#include "sched/validate.hpp"
#include "support/rng.hpp"

namespace ptgsched {
namespace {

using testutil::make_instance;

const std::vector<std::string>& corpus_classes() {
  static const std::vector<std::string> classes = {"fft", "strassen",
                                                   "layered", "irregular"};
  return classes;
}

/// Random processor genome: gene v in [1, P] names task v's processor.
Allocation random_mapping(std::size_t n, int P, Rng& rng) {
  Allocation alloc(n);
  for (auto& s : alloc) s = static_cast<int>(rng.uniform_int(1, P));
  return alloc;
}

/// The heterogeneous platforms under test: speeds only (no cost matrix,
/// the comm-free kernel instantiation) and speeds plus uniform link
/// costs (the kComm instantiation).
std::vector<Cluster> hetero_platforms() {
  return {heterogeneous_variant(chti()),
          heterogeneous_variant(chti(), /*link_cost=*/0.35)};
}

TEST(HeteroDegeneracy, UniformSpeedTableIsBitIdenticalToSequentialTimes) {
  const Cluster flat = degenerate_hetero_variant(chti());
  ASSERT_TRUE(flat.heterogeneous());
  ASSERT_TRUE(flat.has_comm_costs());
  const SyntheticModel model;
  const Ptg g = layered_corpus(40, 1, 801).front();
  const auto pi = make_instance(g, model, flat);
  const auto table = pi->proc_time_table();
  const auto P = static_cast<std::size_t>(flat.num_processors());
  for (TaskId v = 0; v < g.num_tasks(); ++v) {
    const double t1 = model.time(g.task(v), 1, flat);
    for (std::size_t j = 0; j < P; ++j) {
      // Division by a literal 1.0 speed is the identity in IEEE
      // arithmetic: every processor row equals the sequential time.
      ASSERT_EQ(table[v * P + j], t1);
    }
  }
  // Uniform speeds + zero link costs: the average-speed ranks collapse
  // onto the classical sequential levels up to the row-mean's summation
  // rounding (wbar sums P equal terms before dividing, so this is
  // near-equality, not the bitwise identity the durations above enjoy).
  const auto bl = pi->bottom_levels_avg();
  const auto bl_seq = pi->bottom_levels_seq();
  for (TaskId v = 0; v < g.num_tasks(); ++v) {
    ASSERT_NEAR(bl[v], bl_seq[v], 1e-12 * bl_seq[v]);
  }
}

TEST(HeteroDegeneracy, ReproducesHomogeneousWidthOnePlacements) {
  // A width-one homogeneous pass picks one processor per task; forcing
  // that exact mapping through the heterogeneous kernel on the uniform
  // degenerate platform must reproduce every start and finish bitwise —
  // the availability lanes, pop order and placement arithmetic all
  // coincide when speeds are 1.0 and link costs 0.0.
  const Cluster homog = chti();
  const Cluster flat = degenerate_hetero_variant(homog);
  const SyntheticModel model;
  for (const std::string& cls : corpus_classes()) {
    const auto graphs = corpus_by_name(cls, 40, 2, 802);
    for (const ProcessorSelection policy :
         {ProcessorSelection::EarliestAvailable,
          ProcessorSelection::BestFit}) {
      ListSchedulerOptions opts;
      opts.selection = policy;
      for (const auto& g : graphs) {
        const auto pi_h = make_instance(g, model, homog);
        const auto pi_f = make_instance(g, model, flat);
        ListScheduler homogeneous(pi_h, opts);
        ListScheduler hetero(pi_f, opts);
        ASSERT_FALSE(homogeneous.heterogeneous());
        ASSERT_TRUE(hetero.heterogeneous());

        const Allocation ones(g.num_tasks(), 1);
        const Schedule base = homogeneous.build_schedule(ones);
        Allocation mapping(g.num_tasks(), 1);
        for (const PlacedTask& t : base.placed()) {
          ASSERT_EQ(t.processors.size(), 1u);
          mapping[t.task] = t.processors.front() + 1;
        }
        ASSERT_EQ(homogeneous.makespan(ones), hetero.makespan(mapping))
            << cls << " policy " << static_cast<int>(policy);
        const Schedule via_hetero = hetero.build_schedule(mapping);
        for (const PlacedTask& t : base.placed()) {
          const PlacedTask& h = via_hetero.placement(t.task);
          ASSERT_EQ(t.start, h.start) << cls << " task " << t.task;
          ASSERT_EQ(t.finish, h.finish) << cls << " task " << t.task;
          ASSERT_EQ(t.processors, h.processors) << cls << " task " << t.task;
        }
      }
    }
  }
}

TEST(HeteroIdentity, FullPassMatchesTheOracle) {
  const SyntheticModel model;
  for (const Cluster& c : hetero_platforms()) {
    const int P = c.num_processors();
    for (const std::string& cls : corpus_classes()) {
      const auto graphs = corpus_by_name(cls, 40, 2, 803);
      for (const ProcessorSelection policy :
           {ProcessorSelection::EarliestAvailable,
            ProcessorSelection::BestFit}) {
        ListSchedulerOptions opts;
        opts.selection = policy;
        for (const auto& g : graphs) {
          const auto pi = make_instance(g, model, c);
          ListScheduler sched(pi, opts);
          ReferenceMapper oracle(pi, opts);
          Rng rng(derive_seed(804, g.num_tasks(),
                              static_cast<std::uint64_t>(policy) +
                                  (c.has_comm_costs() ? 2u : 0u)));
          for (int k = 0; k < 18; ++k) {
            const Allocation alloc = random_mapping(g.num_tasks(), P, rng);
            const double want = oracle.makespan(alloc);
            ASSERT_EQ(want, sched.makespan(alloc))
                << cls << " mapping " << k << " comm "
                << c.has_comm_costs();
            // Bounded sweep below, at, and above the exact value: the
            // rejection decision must match too.
            for (const double factor : {0.8, 1.0, 1.2}) {
              ASSERT_EQ(oracle.makespan_bounded(alloc, want * factor),
                        sched.makespan_bounded(alloc, want * factor))
                  << cls << " mapping " << k << " bound factor " << factor;
            }
          }
          EXPECT_EQ(oracle.rejected_count(), sched.rejected_count());
          EXPECT_GT(sched.rejected_count(), 0u);
        }
      }
    }
  }
}

TEST(HeteroIdentity, SchedulesAreValidOnHeterogeneousPlatforms) {
  const SyntheticModel model;
  for (const Cluster& c : hetero_platforms()) {
    const auto graphs = irregular_corpus(45, 2, 805);
    for (const auto& g : graphs) {
      const auto pi = make_instance(g, model, c);
      ListScheduler sched(pi);
      Rng rng(806);
      const Allocation alloc =
          random_mapping(g.num_tasks(), c.num_processors(), rng);
      const Schedule s = sched.build_schedule(alloc);
      EXPECT_NO_THROW(validate_schedule(s, g, alloc, model, c));
      // Every task sits on exactly the processor its gene names.
      for (const PlacedTask& t : s.placed()) {
        ASSERT_EQ(t.processors.size(), 1u);
        EXPECT_EQ(t.processors.front(), alloc[t.task] - 1);
      }
      EXPECT_EQ(s.makespan(), sched.makespan(alloc));
    }
  }
}

TEST(HeteroIdentity, EngineTrajectoriesAgreeAcrossThreads) {
  // End-to-end: the evolutionary search over processor genomes must walk
  // ONE trajectory however many evaluation threads run, on both hetero
  // platform shapes.
  const SyntheticModel model;
  for (const Cluster& c : hetero_platforms()) {
    const Ptg g = irregular_corpus(40, 1, 807).front();
    const auto pi = make_instance(g, model, c);

    EmtsConfig cfg = emts5_config();
    cfg.seed = 808;
    cfg.memoize = false;  // force every child through the mapping kernel
    const EmtsResult want = Emts(cfg).schedule(pi);
    for (const std::size_t threads : {2u, 3u}) {
      cfg.threads = threads;
      const EmtsResult got = Emts(cfg).schedule(pi);
      EXPECT_EQ(want.makespan, got.makespan)
          << "threads " << threads << " comm " << c.has_comm_costs();
      EXPECT_EQ(want.best_allocation, got.best_allocation)
          << "threads " << threads;
    }
  }
}

}  // namespace
}  // namespace ptgsched
