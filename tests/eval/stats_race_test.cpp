// Regression test for the reset_stats()/evaluate_batch data race: the
// telemetry counters used to be plain size_t, so a driver thread calling
// stats() or reset_stats() while worker slots were still bumping their
// counters mid-batch was a data race (caught by TSan via the `sanitize`
// label). The counters are now relaxed atomics; this test hammers the
// snapshot/reset path concurrently with batch evaluation and then checks
// the quiescent accounting is exact.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "../common/test_graphs.hpp"
#include "daggen/corpus.hpp"
#include "eval/evaluation_engine.hpp"
#include "model/execution_time.hpp"
#include "platform/cluster.hpp"
#include "support/rng.hpp"

namespace ptgsched {
namespace {

using testutil::make_instance;

std::vector<Individual> random_batch(const Ptg& g, const Cluster& c,
                                     std::size_t n, Rng& rng) {
  std::vector<Individual> batch(n);
  for (auto& ind : batch) {
    ind.genes.resize(g.num_tasks());
    for (auto& s : ind.genes) {
      s = static_cast<int>(rng.uniform_int(1, c.num_processors()));
    }
  }
  return batch;
}

TEST(EvaluationEngineRace, ResetStatsDuringConcurrentBatches) {
  const Ptg g = irregular_corpus(40, 1, 77).front();
  const Cluster c = chti();
  const SyntheticModel model;
  EvalEngineConfig cfg;
  cfg.threads = 4;
  cfg.memoize = true;
  EvaluationEngine engine(make_instance(g, model, c), {}, cfg);

  std::atomic<bool> stop{false};
  std::thread reader([&] {
    // Mid-batch snapshots and resets: values are approximate, but every
    // access must be race-free.
    while (!stop.load(std::memory_order_relaxed)) {
      (void)engine.stats().evaluations;
      engine.reset_stats();
    }
  });

  Rng rng(5);
  for (int round = 0; round < 20; ++round) {
    auto batch = random_batch(g, c, 64, rng);
    engine.evaluate_batch(batch, 0);
    for (const auto& ind : batch) EXPECT_GT(ind.fitness, 0.0);
  }
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  // Quiescent accounting stays exact after all that churn.
  engine.reset_stats();
  const EvalStats zero = engine.stats();
  EXPECT_EQ(zero.evaluations, 0u);
  EXPECT_EQ(zero.scheduled, 0u);
  EXPECT_EQ(zero.cache_hits, 0u);
  EXPECT_EQ(zero.cache_misses, 0u);
  EXPECT_EQ(zero.batches, 0u);
  EXPECT_EQ(zero.eval_seconds, 0.0);

  auto batch = random_batch(g, c, 32, rng);
  engine.evaluate_batch(batch, 0);
  const EvalStats after = engine.stats();
  EXPECT_EQ(after.evaluations, 32u);
  EXPECT_EQ(after.batches, 1u);
}

TEST(EvaluationEngineRace, ResultsUnaffectedByConcurrentResets) {
  // Fitness values are a pure function of the allocation — concurrent
  // telemetry resets must never perturb them.
  const Ptg g = irregular_corpus(30, 1, 78).front();
  const Cluster c = chti();
  const SyntheticModel model;

  Rng rng(9);
  auto batch = random_batch(g, c, 48, rng);
  auto expected = batch;
  {
    EvaluationEngine serial(make_instance(g, model, c), {}, {});
    serial.evaluate_batch(expected, 0);
  }

  EvalEngineConfig cfg;
  cfg.threads = 4;
  EvaluationEngine engine(make_instance(g, model, c), {}, cfg);
  std::atomic<bool> stop{false};
  std::thread resetter([&] {
    while (!stop.load(std::memory_order_relaxed)) engine.reset_stats();
  });
  engine.evaluate_batch(batch, 0);
  stop.store(true, std::memory_order_relaxed);
  resetter.join();

  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_DOUBLE_EQ(batch[i].fitness, expected[i].fitness);
  }
}

}  // namespace
}  // namespace ptgsched
