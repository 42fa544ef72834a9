// Fault-tolerance tests (ctest label "faults"): evaluator faults are
// isolated, the persistent thread pool stays usable after an exception,
// elitism survives poisoned fitness values, cancellation drains cleanly,
// and the experiment sweep retries / classifies / journals failing units.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <optional>

#include "../common/test_graphs.hpp"
#include "../common/fault_injection.hpp"
#include "daggen/corpus.hpp"
#include "emts/emts.hpp"
#include "eval/evaluation_engine.hpp"
#include "exp/experiment.hpp"
#include "sched/validate.hpp"
#include "support/atomic_io.hpp"

namespace ptgsched {
namespace {

using testutil::FaultInjectingEvaluator;
using testutil::FaultMode;
using testutil::InjectedFault;
using testutil::make_instance;

struct EsFixture {
  Ptg g;
  Cluster cluster;
  AmdahlModel model;
  EvaluationEngine engine;
  EsConfig es_cfg;
  MutateFn mutate;
  std::vector<Individual> seeds;

  explicit EsFixture(std::size_t threads)
      : g([] {
          Rng rng(7);
          return make_fft_ptg(8, rng);
        }()),
        cluster(platform_by_name("chti")),
        engine(make_instance(g, model, cluster), {},
               [&] {
                 EvalEngineConfig ec;
                 ec.threads = threads;
                 return ec;
               }()) {
    es_cfg.mu = 4;
    es_cfg.lambda = 12;
    es_cfg.generations = 4;
    es_cfg.seed = 3;
    mutate = Emts::make_mutator(MutationParams{}, 0.33, es_cfg.generations,
                                cluster.num_processors());
    Individual seed;
    seed.genes = Allocation(g.num_tasks(), 1);
    seed.origin = "all-ones";
    seeds.push_back(std::move(seed));
  }
};

TEST(FaultInjection, ThrowPropagatesAndPoolStaysUsable) {
  EsFixture fx(4);
  FaultInjectingEvaluator faulty(fx.engine, FaultMode::kThrow, 30);
  EvolutionStrategy es(fx.es_cfg, faulty, fx.mutate);
  EXPECT_THROW((void)es.run(fx.seeds), InjectedFault);
  EXPECT_TRUE(faulty.fired());

  // The engine (and its persistent pool) survive the exception: a clean
  // run on the very same engine completes and produces a finite best.
  EvolutionStrategy clean(fx.es_cfg, fx.engine, fx.mutate);
  const EsResult r = clean.run(fx.seeds);
  EXPECT_TRUE(std::isfinite(r.best.fitness));
  EXPECT_EQ(r.generations_run, fx.es_cfg.generations);
}

TEST(FaultInjection, InfinityFitnessPreservesElitism) {
  EsFixture fx(0);
  // Poison an offspring evaluation mid-run; under plus selection the
  // per-generation best must still never get worse.
  FaultInjectingEvaluator faulty(fx.engine, FaultMode::kInfinity, 20);
  EvolutionStrategy es(fx.es_cfg, faulty, fx.mutate);
  const EsResult r = es.run(fx.seeds);
  EXPECT_TRUE(faulty.fired());
  EXPECT_TRUE(std::isfinite(r.best.fitness));
  ASSERT_FALSE(r.history.empty());
  for (std::size_t i = 1; i < r.history.size(); ++i) {
    EXPECT_LE(r.history[i].best, r.history[i - 1].best);
  }
}

TEST(FaultInjection, StallingEvaluationStillCompletes) {
  EsFixture fx(4);
  FaultInjectingEvaluator faulty(fx.engine, FaultMode::kStall, 10);
  faulty.stall = std::chrono::milliseconds(50);
  EvolutionStrategy es(fx.es_cfg, faulty, fx.mutate);
  const EsResult r = es.run(fx.seeds);
  EXPECT_TRUE(faulty.fired());
  EXPECT_TRUE(std::isfinite(r.best.fitness));
}

TEST(FaultInjection, CancelMidGenerationDrainsPoolAndKeepsBestSoFar) {
  CancellationToken cancel;
  EsFixture fx(4);
  EvalEngineConfig ec;
  ec.threads = 4;
  ec.cancel = &cancel;
  EvaluationEngine engine(make_instance(fx.g, fx.model, fx.cluster), {}, ec);
  // Forwards to the engine and trips the token at generation 2's
  // selection checkpoint, so the next batch starts cancelled.
  struct CancelAtGenerationTwo final : BatchEvaluator {
    EvaluationEngine& engine;
    CancellationToken& cancel;
    CancelAtGenerationTwo(EvaluationEngine& e, CancellationToken& c)
        : engine(e), cancel(c) {}
    void evaluate_batch(std::vector<Individual>& pool,
                        std::size_t begin) override {
      engine.evaluate_batch(pool, begin);
    }
    void on_selection(std::size_t gen, double best, double worst) override {
      engine.on_selection(gen, best, worst);
      if (gen == 2) cancel.request_cancel();
    }
  } evaluator(engine, cancel);
  EsConfig cfg = fx.es_cfg;
  cfg.generations = 50;
  cfg.cancel = &cancel;
  EvolutionStrategy es(cfg, evaluator, fx.mutate);
  const EsResult r = es.run(fx.seeds);
  EXPECT_TRUE(r.stopped_by_cancellation);
  EXPECT_LT(r.generations_run, cfg.generations);
  // Best-so-far comes from the last fully selected population, never from
  // a torn (short-circuited to +inf) batch.
  EXPECT_TRUE(std::isfinite(r.best.fitness));
}

TEST(FaultInjection, EmtsSurfacesCancellationFlag) {
  CancellationToken cancel;
  Rng rng(5);
  const Ptg g = make_fft_ptg(8, rng);
  const Cluster cluster = platform_by_name("grelon");
  const AmdahlModel model;
  EmtsConfig cfg = emts5_config();
  cfg.generations = 1000;
  cfg.seed = 21;
  cfg.cancel = &cancel;
  cancel.request_cancel();  // trip before the run even starts
  const EmtsResult r = Emts(cfg).schedule(make_instance(g, model, cluster));
  EXPECT_TRUE(r.cancelled);
  // Seeds are evaluated exactly even under a pending cancel, so the
  // returned best-so-far schedule is still valid.
  EXPECT_NO_THROW(
      validate_schedule(r.schedule, g, r.best_allocation, model, cluster));
}

// --- run_comparison unit isolation / retry / taxonomy -------------------

ComparisonConfig tiny_comparison() {
  ComparisonConfig cfg;
  cfg.classes = {"fft"};
  cfg.platforms = {"chti"};
  cfg.baselines = {"mcpa"};
  cfg.num_tasks = 8;
  cfg.instances = 3;
  cfg.seed = 17;
  cfg.emts = emts5_config();
  cfg.emts.mu = 3;
  cfg.emts.lambda = 6;
  cfg.emts.generations = 2;
  return cfg;
}

TEST(UnitIsolation, TransientFailureIsRetriedWithFreshSeed) {
  ComparisonHooks hooks;
  hooks.max_retries = 1;
  hooks.before_attempt = [](const std::string&, const std::string&,
                            std::size_t index, int attempt) {
    if (index == 1 && attempt == 0) {
      throw std::runtime_error("transient evaluator glitch");
    }
  };
  const ComparisonResult r = run_comparison(tiny_comparison(), {}, hooks);
  EXPECT_FALSE(r.cancelled);
  EXPECT_TRUE(r.failures.empty());
  ASSERT_EQ(r.instances.size(), 3u);
  EXPECT_EQ(r.instances[0].retries, 0);
  EXPECT_EQ(r.instances[1].retries, 1);  // succeeded on the retry
  EXPECT_EQ(r.instances[2].retries, 0);
}

TEST(UnitIsolation, PermanentFailureIsRecordedAndSweepContinues) {
  ComparisonHooks hooks;
  hooks.max_retries = 2;
  hooks.before_attempt = [](const std::string&, const std::string&,
                            std::size_t index, int) {
    if (index == 0) throw std::runtime_error("hard evaluator fault");
  };
  const ComparisonResult r = run_comparison(tiny_comparison(), {}, hooks);
  EXPECT_FALSE(r.cancelled);
  ASSERT_EQ(r.failures.size(), 1u);
  EXPECT_EQ(r.failures[0].index, 0u);
  EXPECT_EQ(r.failures[0].kind, UnitErrorKind::kEvalError);
  EXPECT_EQ(r.failures[0].attempts, 3);  // 1 try + 2 retries, all failed
  EXPECT_EQ(r.instances.size(), 2u);     // the other units still ran
  // Cells aggregate over the surviving instances.
  ASSERT_EQ(r.cells.size(), 1u);
  EXPECT_EQ(r.cells[0].ratio.n, 2u);
}

TEST(UnitIsolation, InputErrorsAreNotRetried) {
  ComparisonHooks hooks;
  hooks.max_retries = 5;
  int attempts_seen = 0;
  hooks.before_attempt = [&](const std::string&, const std::string&,
                             std::size_t index, int) {
    if (index == 2) {
      ++attempts_seen;
      throw std::invalid_argument("malformed unit input");
    }
  };
  const ComparisonResult r = run_comparison(tiny_comparison(), {}, hooks);
  ASSERT_EQ(r.failures.size(), 1u);
  EXPECT_EQ(r.failures[0].kind, UnitErrorKind::kInputError);
  EXPECT_EQ(r.failures[0].attempts, 1);  // deterministic: retry is futile
  EXPECT_EQ(attempts_seen, 1);
}

TEST(UnitIsolation, DeadlineErrorClassifiesAsTimeout) {
  ComparisonHooks hooks;
  hooks.before_attempt = [](const std::string&, const std::string&,
                            std::size_t index, int) {
    if (index == 0) throw DeadlineError("unit exceeded deadline");
  };
  const ComparisonResult r = run_comparison(tiny_comparison(), {}, hooks);
  ASSERT_EQ(r.failures.size(), 1u);
  EXPECT_EQ(r.failures[0].kind, UnitErrorKind::kTimeout);
  EXPECT_STREQ(unit_error_kind_name(r.failures[0].kind), "timeout");
}

TEST(UnitIsolation, CancelReasonRefinesTheTaxonomy) {
  // A CancelledError that records a deadline reason is a timeout in the
  // failure taxonomy; user and shutdown reasons stay "cancelled".
  const CancelledError deadline("d", CancelReason::kDeadline);
  const CancelledError user("u", CancelReason::kUser);
  const CancelledError shutdown("s", CancelReason::kShutdown);
  const CancelledError legacy("l");
  EXPECT_EQ(classify_unit_error(deadline), UnitErrorKind::kTimeout);
  EXPECT_EQ(classify_unit_error(user), UnitErrorKind::kCancelled);
  EXPECT_EQ(classify_unit_error(shutdown), UnitErrorKind::kCancelled);
  EXPECT_EQ(classify_unit_error(legacy), UnitErrorKind::kCancelled);
}

TEST(UnitIsolation, CancellationStopsTheSweep) {
  ComparisonHooks hooks;
  hooks.before_attempt = [](const std::string&, const std::string&,
                            std::size_t index, int) {
    if (index == 1) throw CancelledError("operator interrupt");
  };
  const ComparisonResult r = run_comparison(tiny_comparison(), {}, hooks);
  EXPECT_TRUE(r.cancelled);
  EXPECT_EQ(r.instances.size(), 1u);  // unit 0 only; 1 cancelled, 2 skipped
  ASSERT_EQ(r.failures.size(), 1u);
  EXPECT_EQ(r.failures[0].kind, UnitErrorKind::kCancelled);
}

TEST(UnitIsolation, CancelDuringBackoffEndsTheSweep) {
  CancellationToken cancel;
  ComparisonHooks hooks;
  hooks.cancel = &cancel;
  hooks.max_retries = 3;
  hooks.retry_backoff_seconds = 0.05;
  int attempts_seen = 0;
  hooks.before_attempt = [&](const std::string&, const std::string&,
                             std::size_t index, int) {
    if (index == 1) {
      ++attempts_seen;
      cancel.request_cancel();  // lands while the unit backs off
      throw std::runtime_error("transient evaluator glitch");
    }
  };
  const ComparisonResult r = run_comparison(tiny_comparison(), {}, hooks);
  EXPECT_TRUE(r.cancelled);
  EXPECT_EQ(attempts_seen, 1);        // the backoff was cut, no retry ran
  EXPECT_EQ(r.instances.size(), 1u);  // unit 0 only; 2 never started
  ASSERT_EQ(r.failures.size(), 1u);
  EXPECT_EQ(r.failures[0].index, 1u);
  EXPECT_EQ(r.failures[0].kind, UnitErrorKind::kCancelled);
  EXPECT_EQ(r.failures[0].message,
            "cancelled while backing off before retry");
  EXPECT_EQ(r.failures[0].attempts, 1);
}

TEST(UnitIsolation, JournalFailureAbortsTheSweep) {
  // on_unit is the checkpoint append. Its failure is not a unit failure:
  // retrying would re-run a unit whose result may already be half on
  // disk, and recording it would continue with an untrustworthy journal.
  ComparisonHooks hooks;
  hooks.max_retries = 2;
  int attempts = 0;
  hooks.before_attempt = [&](const std::string&, const std::string&,
                             std::size_t, int) { ++attempts; };
  hooks.on_unit = [](const InstanceResult& ir) {
    if (ir.index == 0) {
      throw IoError("campaign_checkpoint.json", "fsync: injected failure");
    }
  };
  bool failure_recorded = false;
  hooks.on_failure = [&](const UnitFailure&) { failure_recorded = true; };
  EXPECT_THROW((void)run_comparison(tiny_comparison(), {}, hooks), IoError);
  EXPECT_EQ(attempts, 1);
  EXPECT_FALSE(failure_recorded);
}

TEST(UnitIsolation, UnitDeadlinePlumbsIntoTimeBudget) {
  ComparisonConfig cfg = tiny_comparison();
  cfg.instances = 1;
  cfg.emts.generations = 100000;  // would run ~forever without the deadline
  ComparisonHooks hooks;
  hooks.unit_deadline_seconds = 0.05;
  const ComparisonResult r = run_comparison(cfg, {}, hooks);
  ASSERT_EQ(r.instances.size(), 1u);
  EXPECT_TRUE(r.instances[0].hit_time_budget);
  EXPECT_GT(r.instances[0].emts_makespan, 0.0);  // valid best-so-far
}

TEST(UnitIsolation, CheckpointReplayReproducesBitIdenticalResults) {
  const ComparisonConfig cfg = tiny_comparison();

  // First run: journal every unit through on_unit (JSON round-trip, as the
  // campaign checkpoint does).
  std::map<std::string, Json> journal;
  ComparisonHooks record;
  record.on_unit = [&](const InstanceResult& ir) {
    journal[ir.cls + '|' + ir.platform + '|' + std::to_string(ir.index)] =
        instance_result_to_json(ir);
  };
  const ComparisonResult first = run_comparison(cfg, {}, record);
  ASSERT_EQ(journal.size(), 3u);

  // Second run: every unit replays from the journal; executing any unit is
  // an error (before_attempt throws).
  ComparisonHooks replay;
  replay.lookup = [&](const std::string& cls, const std::string& platform,
                      std::size_t index) -> std::optional<InstanceResult> {
    const auto it =
        journal.find(cls + '|' + platform + '|' + std::to_string(index));
    if (it == journal.end()) return std::nullopt;
    return instance_result_from_json(it->second);
  };
  replay.before_attempt = [](const std::string&, const std::string&,
                             std::size_t, int) {
    FAIL() << "journaled unit was re-executed";
  };
  const ComparisonResult second = run_comparison(cfg, {}, replay);

  ASSERT_EQ(second.instances.size(), first.instances.size());
  for (std::size_t i = 0; i < first.instances.size(); ++i) {
    // Bit-identical through the JSON round-trip (%.17g doubles).
    EXPECT_EQ(instance_result_to_json(first.instances[i]),
              instance_result_to_json(second.instances[i]));
  }
  ASSERT_EQ(second.cells.size(), first.cells.size());
  for (std::size_t i = 0; i < first.cells.size(); ++i) {
    EXPECT_EQ(second.cells[i].ratio.mean, first.cells[i].ratio.mean);
    EXPECT_EQ(second.cells[i].ratio.lo, first.cells[i].ratio.lo);
    EXPECT_EQ(second.cells[i].ratio.hi, first.cells[i].ratio.hi);
  }
}

TEST(UnitIsolation, DefaultHooksMatchHistoricalTrajectory) {
  // A retried unit re-derives its seed; attempt 0 must stay bit-compatible
  // with the pre-fault-tolerance derivation, so default-hooks runs are
  // reproducible across versions. Proxy: two plain runs agree exactly.
  const ComparisonResult a = run_comparison(tiny_comparison());
  const ComparisonResult b = run_comparison(tiny_comparison(), {}, {});
  ASSERT_EQ(a.instances.size(), b.instances.size());
  for (std::size_t i = 0; i < a.instances.size(); ++i) {
    EXPECT_EQ(a.instances[i].emts_makespan, b.instances[i].emts_makespan);
  }
}

TEST(UnitIsolation, RetriedUnitUsesDifferentSeedStream) {
  // The retry salt must actually change the trajectory: run instance 1
  // normally, then force its first attempt to fail and compare. (Equality
  // would mean the retry replays the exact failing trajectory.)
  const ComparisonResult plain = run_comparison(tiny_comparison());

  ComparisonHooks hooks;
  hooks.max_retries = 1;
  hooks.before_attempt = [](const std::string&, const std::string&,
                            std::size_t index, int attempt) {
    if (index == 1 && attempt == 0) throw std::runtime_error("glitch");
  };
  const ComparisonResult retried =
      run_comparison(tiny_comparison(), {}, hooks);
  ASSERT_EQ(plain.instances.size(), retried.instances.size());
  // Same unit, different attempt -> different evaluation trajectory. The
  // makespans may coincide (both converge), but the evaluation count or
  // makespan differs unless the streams were identical AND converged; we
  // assert only that the retry actually re-ran the unit.
  EXPECT_EQ(retried.instances[1].retries, 1);
  EXPECT_GT(retried.instances[1].emts_makespan, 0.0);
}

}  // namespace
}  // namespace ptgsched
