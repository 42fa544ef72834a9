// End-to-end determinism of EMTS over the evaluation engine: the same
// seed must produce a bit-identical convergence history and best schedule
// regardless of thread count, with and without the memo cache, with and
// without the rejection strategy. This is the contract that makes the
// multi-threaded engine safe to use for reproducible experiments.

#include <gtest/gtest.h>

#include "../common/test_graphs.hpp"
#include "daggen/corpus.hpp"
#include "emts/emts.hpp"

namespace ptgsched {
namespace {

using testutil::make_instance;

void expect_identical(const EmtsResult& a, const EmtsResult& b,
                      const std::string& label) {
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan) << label;
  EXPECT_EQ(a.best_allocation, b.best_allocation) << label;
  ASSERT_EQ(a.es.history.size(), b.es.history.size()) << label;
  for (std::size_t i = 0; i < a.es.history.size(); ++i) {
    const GenerationStats& ga = a.es.history[i];
    const GenerationStats& gb = b.es.history[i];
    EXPECT_EQ(ga.generation, gb.generation) << label << " gen " << i;
    EXPECT_DOUBLE_EQ(ga.best, gb.best) << label << " gen " << i;
    EXPECT_DOUBLE_EQ(ga.mean, gb.mean) << label << " gen " << i;
    EXPECT_DOUBLE_EQ(ga.worst, gb.worst) << label << " gen " << i;
    EXPECT_EQ(ga.evaluations, gb.evaluations) << label << " gen " << i;
  }
  EXPECT_EQ(a.es.evaluations, b.es.evaluations) << label;
  ASSERT_EQ(a.seeds.size(), b.seeds.size()) << label;
  for (std::size_t i = 0; i < a.seeds.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.seeds[i].makespan, b.seeds[i].makespan) << label;
  }
}

TEST(EvalDeterminism, ThreadCountNeverChangesTheResult) {
  const Ptg g = irregular_corpus(60, 1, 77).front();
  const Cluster c = grelon();
  const SyntheticModel model;

  for (const bool memoize : {false, true}) {
    for (const bool rejection : {false, true}) {
      EmtsConfig cfg = emts5_config();
      cfg.seed = 21;
      cfg.memoize = memoize;
      cfg.use_rejection = rejection;

      cfg.threads = 1;
      const auto pi = make_instance(g, model, c);
      const EmtsResult serial = Emts(cfg).schedule(pi);
      cfg.threads = 8;
      const EmtsResult parallel = Emts(cfg).schedule(pi);

      const std::string label = std::string("memoize=") +
                                (memoize ? "on" : "off") + " rejection=" +
                                (rejection ? "on" : "off");
      expect_identical(serial, parallel, label);
    }
  }
}

TEST(EvalDeterminism, MemoCacheNeverChangesTheTrajectory) {
  // The cache returns exact values only, so the convergence history and
  // final schedule are identical with and without it (rejection counters
  // may legitimately differ: a cache hit preempts a bounded evaluation).
  const Ptg g = irregular_corpus(50, 1, 78).front();
  const Cluster c = chti();
  const SyntheticModel model;

  for (const bool rejection : {false, true}) {
    EmtsConfig cfg = emts5_config();
    cfg.seed = 33;
    cfg.use_rejection = rejection;
    cfg.memoize = false;
    const auto pi = make_instance(g, model, c);
    const EmtsResult plain = Emts(cfg).schedule(pi);
    cfg.memoize = true;
    const EmtsResult memo = Emts(cfg).schedule(pi);
    expect_identical(plain, memo,
                     std::string("rejection=") + (rejection ? "on" : "off"));
    // The optimizer revisits parents and duplicate mutants, so the cache
    // must actually fire for this test to mean anything.
    EXPECT_GT(memo.eval_stats.cache_hits, 0u);
    EXPECT_LT(memo.eval_stats.scheduled, plain.eval_stats.scheduled);
  }
}

TEST(EvalDeterminism, RerunIsBitIdentical) {
  const Ptg g = irregular_corpus(40, 1, 79).front();
  const Cluster c = chti();
  const SyntheticModel model;
  EmtsConfig cfg = emts5_config();
  cfg.seed = 55;
  cfg.threads = 4;
  cfg.use_rejection = true;
  const auto pi = make_instance(g, model, c);
  const EmtsResult a = Emts(cfg).schedule(pi);
  const EmtsResult b = Emts(cfg).schedule(pi);
  expect_identical(a, b, "rerun");
  EXPECT_EQ(a.eval_stats.rejections, b.eval_stats.rejections);
}

}  // namespace
}  // namespace ptgsched
