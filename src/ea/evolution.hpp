#pragma once
// Generic (mu + lambda) / (mu, lambda) evolution strategy over allocation
// genomes (Section III, Section V introduction).
//
// The framework is deliberately problem-agnostic: it sees a genome
// (Allocation), a batch evaluator (lower fitness is better; EMTS plugs in
// the EvaluationEngine, whose fitness is the list-scheduler makespan), and
// a mutation operator. EMTS (src/emts) is a thin specialization that
// supplies the paper's seeding and mutation.
//
// The paper uses the "Plus-Strategy", where the mu best of parents plus
// offspring survive, so "the population can never become worse while the
// generations proceed" — that elitism invariant is tested as a property.
// Comma selection is provided for ablations.

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "sched/allocation.hpp"
#include "support/cancellation.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace ptgsched {

/// One member of the population.
struct Individual {
  Allocation genes;
  double fitness = std::numeric_limits<double>::infinity();
  std::string origin;  ///< Which seed/operator produced it (for analysis).
};

/// Fitness: lower is better (EMTS: schedule makespan). `slot` identifies
/// the evaluation lane in [0, max(1, threads)); implementations keep any
/// mutable scratch (e.g. a ListScheduler) per slot.
using FitnessFn =
    std::function<double(const Allocation& genes, std::size_t slot)>;

/// Mutation: produce a child genome from a parent at generation `u`.
using MutateFn = std::function<Allocation(const Allocation& parent,
                                          std::size_t generation, Rng& rng)>;

/// MutateFn with a `touched` out-parameter that nothing reads any more;
/// named by benchmark/src/recompose.cpp:169.
using TrackedMutateFn = std::function<Allocation(
    const Allocation& parent, std::size_t generation, Rng& rng,
    std::vector<TaskId>& touched)>;

/// Batch fitness evaluator: the abstraction the ES drives instead of a raw
/// per-individual callback. An implementation owns whatever it needs to
/// evaluate a whole population slice — worker threads, per-slot scratch,
/// caches, incumbent bounds — and keeps that state alive across
/// generations (the ES never tears an evaluator down between batches).
/// EMTS plugs in the EvaluationEngine from src/eval; tests and ablations
/// can use FnBatchEvaluator below to adapt a plain FitnessFn.
class BatchEvaluator {
 public:
  virtual ~BatchEvaluator() = default;

  /// Evaluate pool[begin .. pool.size()) in place, filling `fitness`.
  /// Individuals are independent; implementations may evaluate them in any
  /// order and concurrently. Must be deterministic in the genes: the value
  /// assigned to an individual may not depend on evaluation order or
  /// thread count.
  virtual void evaluate_batch(std::vector<Individual>& pool,
                              std::size_t begin) = 0;

  /// Selection checkpoint: called after the initial selection and after
  /// every generation's selection with the best and worst surviving
  /// fitness. No evaluations are in flight during the call, so an
  /// implementation may safely publish an incumbent bound for the next
  /// batch (EMTS's rejection strategy uses the worst survivor: under plus
  /// selection an offspring worse than every current parent can never be
  /// selected, so rejecting it does not alter the evolution trajectory).
  virtual void on_selection(std::size_t generation, double best,
                            double worst) {
    (void)generation;
    (void)best;
    (void)worst;
  }
};

/// Adapts a plain FitnessFn to the BatchEvaluator interface, evaluating
/// over a persistent thread pool (created once, reused every generation).
/// `threads` counts evaluation lanes: 0 evaluates inline on the calling
/// thread, T > 0 uses T - 1 pool workers plus the caller. The fitness
/// function's `slot` argument is in [0, max(1, threads)). Throws
/// std::invalid_argument when `fitness` is empty.
class FnBatchEvaluator final : public BatchEvaluator {
 public:
  FnBatchEvaluator(FitnessFn fitness, std::size_t threads);

  void evaluate_batch(std::vector<Individual>& pool,
                      std::size_t begin) override;

  /// The persistent pool (exposed so tests can assert worker stability).
  [[nodiscard]] const ThreadPool& pool() const noexcept { return pool_; }

 private:
  FitnessFn fitness_;
  ThreadPool pool_;
};

struct EsConfig {
  std::size_t mu = 5;          ///< Parents kept per generation.
  std::size_t lambda = 25;     ///< Offspring per generation.
  std::size_t generations = 5; ///< U.
  bool plus_selection = true;  ///< Plus (elitist) vs Comma strategy.
  /// Wall-clock budget in seconds; 0 disables the budget. Checked between
  /// generations (Section II-C: trade time for solution quality).
  double time_budget_seconds = 0.0;
  /// Stop after this many consecutive generations without improvement of
  /// the best fitness; 0 disables stagnation detection.
  std::size_t stagnation_limit = 0;
  std::uint64_t seed = 1;
  /// Cooperative cancellation (not owned; must outlive run()). Observed at
  /// generation boundaries and again right after each batch evaluation: a
  /// cancel seen mid-generation discards the possibly-torn offspring
  /// batch, keeps the last fully selected population, and returns with
  /// stopped_by_cancellation set — the result is always the untorn
  /// best-so-far.
  const CancellationToken* cancel = nullptr;
};

/// Per-generation convergence record.
struct GenerationStats {
  std::size_t generation = 0;
  double best = 0.0;
  double mean = 0.0;
  double worst = 0.0;
  std::size_t evaluations = 0;  ///< Cumulative fitness evaluations so far.
  double elapsed_seconds = 0.0;
};

struct EsResult {
  Individual best;
  std::vector<GenerationStats> history;
  std::size_t evaluations = 0;
  std::size_t generations_run = 0;
  double elapsed_seconds = 0.0;
  bool stopped_by_time_budget = false;
  bool stopped_by_stagnation = false;
  /// A cancellation request stopped the run early; `best` is the
  /// best-so-far individual from the last completed selection.
  bool stopped_by_cancellation = false;
};

/// The evolution strategy engine.
class EvolutionStrategy {
 public:
  /// Drive a batch evaluator (not owned; must outlive run()). The
  /// evaluator owns its parallelism; a plain FitnessFn goes through
  /// FnBatchEvaluator.
  EvolutionStrategy(EsConfig config, BatchEvaluator& evaluator,
                    MutateFn mutate);

  /// Replace the mutation operator with `mutate`, discarding what it
  /// reports into `touched`. Used by benchmark/src/recompose.cpp:169.
  void set_tracked_mutator(TrackedMutateFn mutate);

  /// Run the ES. `seeds` are starting genomes (may be empty only if
  /// `fallback` below is provided via seeds — at least one seed required).
  /// If fewer than mu seeds are given, the population is filled with
  /// mutants of the seeds; surplus seeds beyond mu still compete in the
  /// first selection.
  [[nodiscard]] EsResult run(const std::vector<Individual>& seeds);

  [[nodiscard]] const EsConfig& config() const noexcept { return config_; }

 private:
  void evaluate(std::vector<Individual>& pool, std::size_t begin,
                EsResult& result);

  EsConfig config_;
  BatchEvaluator& evaluator_;
  MutateFn mutate_;
};

}  // namespace ptgsched
