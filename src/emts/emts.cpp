#include "emts/emts.hpp"

#include <algorithm>
#include <stdexcept>

#include "heuristics/delta_critical.hpp"
#include "support/timer.hpp"

namespace ptgsched {

EmtsConfig emts5_config() {
  EmtsConfig cfg;
  cfg.mu = 5;
  cfg.lambda = 25;
  cfg.generations = 5;
  return cfg;
}

EmtsConfig emts10_config() {
  EmtsConfig cfg;
  cfg.mu = 10;
  cfg.lambda = 100;
  cfg.generations = 10;
  return cfg;
}

Emts::Emts(EmtsConfig config) : config_(std::move(config)) {
  if (config_.generations == 0) {
    throw std::invalid_argument("Emts: generations == 0");
  }
  if (!(config_.fm > 0.0 && config_.fm <= 1.0)) {
    throw std::invalid_argument("Emts: fm must be in (0, 1]");
  }
  if (config_.seed_heuristics.empty() && !config_.use_delta_seed &&
      !config_.use_random_seed) {
    throw std::invalid_argument("Emts: no seed source configured");
  }
  if (config_.use_rejection && !config_.plus_selection) {
    // With comma selection the whole population is rebuilt from offspring,
    // so rejecting "worse than the current worst parent" would starve it.
    throw std::invalid_argument(
        "Emts: the rejection strategy requires plus selection");
  }
}

MutateFn Emts::make_mutator(MutationParams params, double fm,
                            std::size_t generations, int P) {
  return [params, fm, generations, P](const Allocation& parent,
                                      std::size_t u, Rng& rng) {
    Allocation child = parent;
    mutate_allocation(params, fm, std::min(u, generations - 1), generations,
                      P, rng, child);
    return child;
  };
}

TrackedMutateFn Emts::make_tracked_mutator(MutationParams params, double fm,
                                           std::size_t generations, int P) {
  return [mutate = make_mutator(params, fm, generations, P)](
             const Allocation& parent, std::size_t u, Rng& rng,
             std::vector<TaskId>& /*touched*/) {
    return mutate(parent, u, rng);
  };
}

EvalEngineConfig Emts::engine_config() const {
  EvalEngineConfig engine_cfg;
  engine_cfg.threads = config_.threads;
  engine_cfg.use_rejection = config_.use_rejection;
  engine_cfg.memoize = config_.memoize;
  engine_cfg.kernel = config_.kernel;
  engine_cfg.cancel = config_.cancel;
  return engine_cfg;
}

EmtsResult Emts::schedule(
    const std::shared_ptr<const ProblemInstance>& instance) const {
  if (instance == nullptr) {
    throw std::invalid_argument("Emts: null problem instance");
  }
  // The engine owns the whole evaluation hot path for this run: per-slot
  // list schedulers, the persistent worker pool, the memo cache, and the
  // rejection incumbent (published by the ES between selections).
  EvaluationEngine engine(instance, config_.mapping, engine_config());
  return schedule(engine);
}

namespace {

/// Per-run stats of an engine that may carry history from earlier runs
/// (pooled engines): the difference of two snapshots.
EvalStats stats_delta(const EvalStats& now, const EvalStats& before) {
  EvalStats d;
  d.evaluations = now.evaluations - before.evaluations;
  d.scheduled = now.scheduled - before.scheduled;
  d.cache_hits = now.cache_hits - before.cache_hits;
  d.cache_misses = now.cache_misses - before.cache_misses;
  d.cache_skipped = now.cache_skipped - before.cache_skipped;
  d.rejections = now.rejections - before.rejections;
  d.batches = now.batches - before.batches;
  d.eval_seconds = now.eval_seconds - before.eval_seconds;
  return d;
}

}  // namespace

EmtsResult Emts::schedule(EvaluationEngine& engine) const {
  const std::shared_ptr<const ProblemInstance>& instance = engine.instance();
  if (instance == nullptr) {
    throw std::invalid_argument("Emts: engine has no problem instance");
  }
  // This run's cancellation policy wins over whatever the engine was
  // constructed (or last used) with.
  engine.set_cancel(config_.cancel);
  const EvalStats stats_before = engine.stats();
  const Ptg& g = instance->graph();
  const int num_processors = instance->num_processors();
  WallTimer total_timer;
  EmtsResult result;

  // --- Step 0: starting solutions (Section III-B). ---------------------
  WallTimer seed_timer;
  std::vector<Individual> seeds;

  const auto add_seed = [&](const std::string& label, Allocation alloc) {
    SeedInfo info;
    info.heuristic = label;
    info.makespan = engine.evaluate_one(alloc);
    info.allocation = alloc;
    result.seeds.push_back(info);
    Individual ind;
    ind.genes = std::move(alloc);
    ind.origin = label;
    seeds.push_back(std::move(ind));
  };

  for (const std::string& name : config_.seed_heuristics) {
    const auto heuristic = make_heuristic(name);
    add_seed(name, heuristic->allocate(*instance));
  }
  if (config_.use_delta_seed) {
    const DeltaCriticalAllocation delta(config_.delta);
    add_seed("delta", delta.allocate(*instance));
  }
  if (config_.use_random_seed) {
    Rng rng(derive_seed(config_.seed, 0x5eedULL));
    Allocation random_alloc(g.num_tasks());
    for (auto& s : random_alloc) {
      s = static_cast<int>(rng.uniform_int(1, num_processors));
    }
    add_seed("random", std::move(random_alloc));
  }
  result.seeding_seconds = seed_timer.seconds();

  // --- Step 1: evolutionary allocation optimization (Sections III-C/D). -
  EsConfig es_cfg;
  es_cfg.mu = config_.mu;
  es_cfg.lambda = config_.lambda;
  es_cfg.generations = config_.generations;
  es_cfg.plus_selection = config_.plus_selection;
  es_cfg.time_budget_seconds = config_.time_budget_seconds;
  es_cfg.stagnation_limit = config_.stagnation_limit;
  es_cfg.seed = config_.seed;
  es_cfg.cancel = config_.cancel;

  EvolutionStrategy es(es_cfg, engine,
                       make_mutator(config_.mutation, config_.fm,
                                    config_.generations, num_processors));
  result.es = es.run(seeds);

  result.eval_stats = stats_delta(engine.stats(), stats_before);
  result.rejected_evaluations = result.eval_stats.rejections;
  result.cancelled = result.es.stopped_by_cancellation;

  // --- Step 2: map the best allocation (Section III-A). ----------------
  result.best_allocation = result.es.best.genes;
  result.schedule = engine.build_schedule(result.best_allocation);
  result.makespan = result.schedule.makespan();
  result.total_seconds = total_timer.seconds();
  return result;
}

}  // namespace ptgsched
