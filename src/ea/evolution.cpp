#include "ea/evolution.hpp"

#include <algorithm>
#include <stdexcept>

#include "support/stats.hpp"
#include "support/timer.hpp"

namespace ptgsched {

FnBatchEvaluator::FnBatchEvaluator(FitnessFn fitness, std::size_t threads)
    : fitness_(std::move(fitness)),
      pool_(threads == 0 ? 0 : threads - 1) {
  if (fitness_ == nullptr) {
    throw std::invalid_argument("FnBatchEvaluator: fitness must be callable");
  }
}

void FnBatchEvaluator::evaluate_batch(std::vector<Individual>& pool,
                                      std::size_t begin) {
  const std::size_t n = pool.size() - begin;
  // Small blocks rebalance imbalanced evaluations (e.g. rejection
  // bailouts) across the persistent workers; the slot stays a stable lane
  // id so the fitness function may keep per-slot scratch. With no workers
  // the pool runs every block inline on the caller as slot 0.
  const std::size_t grain =
      std::max<std::size_t>(1, n / (4 * pool_.num_slots()));
  pool_.parallel_for_blocked(
      n, grain, [&](std::size_t lo, std::size_t hi, std::size_t slot) {
        for (std::size_t i = lo; i < hi; ++i) {
          pool[begin + i].fitness = fitness_(pool[begin + i].genes, slot);
        }
      });
}

EvolutionStrategy::EvolutionStrategy(EsConfig config, BatchEvaluator& evaluator,
                                     MutateFn mutate)
    : config_(config), evaluator_(evaluator), mutate_(std::move(mutate)) {
  if (config_.mu == 0) throw std::invalid_argument("ES: mu == 0");
  if (config_.lambda == 0) throw std::invalid_argument("ES: lambda == 0");
  if (!config_.plus_selection && config_.lambda < config_.mu) {
    throw std::invalid_argument("ES: comma selection requires lambda >= mu");
  }
  if (mutate_ == nullptr) {
    throw std::invalid_argument("ES: mutate must be callable");
  }
}

void EvolutionStrategy::set_tracked_mutator(TrackedMutateFn mutate) {
  if (mutate == nullptr) {
    throw std::invalid_argument("ES: tracked mutate must be callable");
  }
  mutate_ = [tracked = std::move(mutate)](const Allocation& parent,
                                          std::size_t generation, Rng& rng) {
    std::vector<TaskId> touched;
    return tracked(parent, generation, rng, touched);
  };
}

void EvolutionStrategy::evaluate(std::vector<Individual>& pool,
                                 std::size_t begin, EsResult& result) {
  const std::size_t n = pool.size() - begin;
  if (n == 0) return;
  evaluator_.evaluate_batch(pool, begin);
  result.evaluations += n;
}

EsResult EvolutionStrategy::run(const std::vector<Individual>& seeds) {
  if (seeds.empty()) throw std::invalid_argument("ES: no starting solutions");
  for (const auto& s : seeds) {
    if (s.genes.empty()) throw std::invalid_argument("ES: empty seed genome");
  }

  WallTimer timer;
  EsResult result;
  Rng rng(config_.seed);

  const auto cancel_requested = [&]() noexcept {
    return config_.cancel != nullptr && config_.cancel->cancelled();
  };

  // Initial population: all seeds, then mutants of random seeds until at
  // least mu individuals exist.
  std::vector<Individual> population;
  population.reserve(std::max(config_.mu, seeds.size()) + config_.lambda);
  for (const auto& s : seeds) population.push_back(s);
  while (population.size() < config_.mu) {
    const Individual& parent = seeds[rng.index(seeds.size())];
    Individual filler;
    filler.genes = mutate_(parent.genes, 0, rng);
    filler.origin = parent.origin.empty() ? "seed-mutant"
                                          : parent.origin + "-mutant";
    population.push_back(std::move(filler));
  }
  evaluate(population, 0, result);
  // A cancel during the initial batch may leave torn (+inf) fitness values
  // in the pool; the flag makes the caller treat `best` as best-effort.
  if (cancel_requested()) result.stopped_by_cancellation = true;

  const auto by_fitness = [](const Individual& a, const Individual& b) {
    return a.fitness < b.fitness;
  };
  std::stable_sort(population.begin(), population.end(), by_fitness);
  if (population.size() > config_.mu) population.resize(config_.mu);

  const auto record = [&](std::size_t gen) {
    GenerationStats gs;
    gs.generation = gen;
    gs.best = population.front().fitness;
    gs.worst = population.back().fitness;
    RunningStats rs;
    for (const auto& ind : population) rs.add(ind.fitness);
    gs.mean = rs.mean();
    gs.evaluations = result.evaluations;
    gs.elapsed_seconds = timer.seconds();
    result.history.push_back(gs);
    evaluator_.on_selection(gen, population.front().fitness,
                            population.back().fitness);
  };
  record(0);

  double best_seen = population.front().fitness;
  std::size_t stagnant = 0;

  for (std::size_t u = 0; u < config_.generations; ++u) {
    if (result.stopped_by_cancellation || cancel_requested()) {
      result.stopped_by_cancellation = true;
      break;
    }
    if (config_.time_budget_seconds > 0.0 &&
        timer.seconds() >= config_.time_budget_seconds) {
      result.stopped_by_time_budget = true;
      break;
    }

    // Reproduction: lambda mutants of uniformly chosen parents.
    std::vector<Individual> pool;
    pool.reserve((config_.plus_selection ? population.size() : 0) +
                 config_.lambda);
    if (config_.plus_selection) {
      pool.insert(pool.end(), population.begin(), population.end());
    }
    const std::size_t offspring_begin = pool.size();
    for (std::size_t j = 0; j < config_.lambda; ++j) {
      const Individual& parent = population[rng.index(population.size())];
      Individual child;
      child.genes = mutate_(parent.genes, u, rng);
      child.origin = "gen" + std::to_string(u + 1);
      pool.push_back(std::move(child));
    }
    evaluate(pool, offspring_begin, result);
    if (cancel_requested()) {
      // The engine short-circuits remaining evaluations to +inf once the
      // token trips, so this batch may be torn — discard it and keep the
      // last fully selected population as the best-so-far result.
      result.stopped_by_cancellation = true;
      break;
    }

    std::stable_sort(pool.begin(), pool.end(), by_fitness);
    pool.resize(std::min(pool.size(), config_.mu));
    population = std::move(pool);

    ++result.generations_run;
    record(u + 1);

    if (population.front().fitness < best_seen) {
      best_seen = population.front().fitness;
      stagnant = 0;
    } else {
      ++stagnant;
      if (config_.stagnation_limit > 0 &&
          stagnant >= config_.stagnation_limit) {
        result.stopped_by_stagnation = true;
        break;
      }
    }
  }

  result.best = population.front();
  result.elapsed_seconds = timer.seconds();
  return result;
}

}  // namespace ptgsched
