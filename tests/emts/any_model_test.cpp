// Property tests for the paper's central claim: "EMTS can be used with ANY
// underlying model for predicting the execution time of moldable tasks."
//
// We stress the whole pipeline with adversarial models the authors never
// tried: random per-p penalty tables (arbitrary non-monotonic spikes) and
// the communication-overhead model (U-shaped curves). Every invariant that
// holds for Model 1/2 must hold here too: valid schedules, the elitism
// bound vs the seeds, and respect for the makespan lower bound.

#include <gtest/gtest.h>

#include "../common/test_graphs.hpp"
#include "daggen/corpus.hpp"
#include "emts/emts.hpp"
#include "model/overhead.hpp"
#include "sched/lower_bounds.hpp"
#include "sched/validate.hpp"

namespace ptgsched {
namespace {

using testutil::make_instance;

// Random penalty table over Amdahl: multipliers in [1, 3], independently
// per processor count — maximally irregular but still >= the ideal time.
std::shared_ptr<const ExecutionTimeModel> random_spiky_model(
    std::uint64_t seed, int max_procs) {
  Rng rng(seed);
  std::vector<double> table(static_cast<std::size_t>(max_procs));
  for (auto& m : table) m = rng.uniform_real(1.0, 3.0);
  return std::make_shared<PenaltyTableModel>(std::make_shared<AmdahlModel>(),
                                             std::move(table));
}

class AnyModelProperty : public ::testing::TestWithParam<int> {};

TEST_P(AnyModelProperty, EmtsInvariantsHoldUnderRandomSpikyModels) {
  const auto model_seed = static_cast<std::uint64_t>(GetParam());
  const Cluster cluster = chti();
  const auto model = random_spiky_model(model_seed, cluster.num_processors());

  const auto graphs = irregular_corpus(30, 2, 500 + model_seed);
  for (const auto& g : graphs) {
    EmtsConfig cfg = emts5_config();
    cfg.seed = model_seed + 1;
    const EmtsResult r = Emts(cfg).schedule(make_instance(g, model, cluster));

    // 1. The schedule is legal under this exact model.
    EXPECT_NO_THROW(
        validate_schedule(r.schedule, g, r.best_allocation, *model, cluster))
        << g.name() << " model seed " << model_seed;

    // 2. Elitism: never worse than any seed heuristic.
    for (const auto& s : r.seeds) {
      EXPECT_LE(r.makespan, s.makespan + 1e-9)
          << g.name() << " vs " << s.heuristic;
    }

    // 3. The makespan lower bound holds for arbitrary models too.
    const MakespanLowerBounds lb =
        makespan_lower_bounds(g, *model, cluster);
    EXPECT_GE(r.makespan, lb.combined() - 1e-9) << g.name();
  }
}

INSTANTIATE_TEST_SUITE_P(SpikyModels, AnyModelProperty,
                         ::testing::Range(0, 6));

TEST(AnyModel, EmtsWorksWithCommunicationOverheadModel) {
  const OverheadModel model(std::make_shared<AmdahlModel>(), 1e-4, 125e6);
  const Cluster cluster = grelon();
  const auto graphs = layered_corpus(50, 3, 777);
  for (const auto& g : graphs) {
    EmtsConfig cfg = emts5_config();
    cfg.seed = 3;
    const EmtsResult r = Emts(cfg).schedule(make_instance(g, model, cluster));
    EXPECT_NO_THROW(
        validate_schedule(r.schedule, g, r.best_allocation, model, cluster));
    for (const auto& s : r.seeds) EXPECT_LE(r.makespan, s.makespan + 1e-9);
  }
}

TEST(AnyModel, EmtsWorksWithDowneyModel) {
  const DowneyModel model(1.5);
  const Cluster cluster = chti();
  Rng rng(9);
  const Ptg g = make_fft_ptg(8, rng);
  EmtsConfig cfg = emts5_config();
  cfg.seed = 4;
  const EmtsResult r = Emts(cfg).schedule(make_instance(g, model, cluster));
  EXPECT_NO_THROW(
      validate_schedule(r.schedule, g, r.best_allocation, model, cluster));
}

TEST(AnyModel, RejectionStaysExactUnderSpikyModels) {
  // The rejection strategy's identity guarantee is model-independent.
  const Cluster cluster = chti();
  const auto model = random_spiky_model(99, cluster.num_processors());
  const auto graphs = irregular_corpus(40, 2, 888);
  for (const auto& g : graphs) {
    EmtsConfig cfg = emts5_config();
    cfg.seed = 5;
    const auto pi = make_instance(g, model, cluster);
    const EmtsResult plain = Emts(cfg).schedule(pi);
    cfg.use_rejection = true;
    const EmtsResult rejecting = Emts(cfg).schedule(pi);
    EXPECT_DOUBLE_EQ(plain.makespan, rejecting.makespan) << g.name();
    EXPECT_EQ(plain.best_allocation, rejecting.best_allocation);
  }
}

}  // namespace
}  // namespace ptgsched
