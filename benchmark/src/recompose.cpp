#include "recompose.hpp"

#include <bit>
#include <chrono>
#include <cstdio>
#include <stdexcept>

#include "heuristics/delta_critical.hpp"
#include "support/timer.hpp"

namespace ptgbench {

using namespace ptgsched;

namespace {

/// Span-recording BatchEvaluator: delegates every call to the engine.
class TracedEvaluator final : public BatchEvaluator {
 public:
  TracedEvaluator(EvaluationEngine& engine, Tracer& tracer, Capture* capture)
      : engine_(engine), tracer_(tracer), capture_(capture) {}

  void evaluate_batch(std::vector<Individual>& pool,
                      std::size_t begin) override {
    if (capture_ != nullptr) {
      const auto s = tracer_.span("trace.capture");
      Capture::Event e;
      e.pool = pool;
      e.begin = begin;
      capture_->events.push_back(std::move(e));
    }
    {
      const auto s = tracer_.span("eval.batch");
      engine_.evaluate_batch(pool, begin);
    }
    if (capture_ != nullptr) {
      const auto s = tracer_.span("trace.capture");
      std::vector<double>& fitness = capture_->events.back().fitness;
      for (std::size_t i = begin; i < pool.size(); ++i) {
        fitness.push_back(pool[i].fitness);
      }
    }
  }

  void on_selection(std::size_t generation, double best,
                    double worst) override {
    if (capture_ != nullptr) {
      const auto s = tracer_.span("trace.capture");
      Capture::Event e;
      e.is_batch = false;
      e.generation = generation;
      e.best = best;
      e.worst = worst;
      capture_->events.push_back(std::move(e));
    }
    const auto s = tracer_.span("eval.on_selection");
    engine_.on_selection(generation, best, worst);
  }

 private:
  EvaluationEngine& engine_;
  Tracer& tracer_;
  Capture* capture_;
};

EvalStats stats_delta(const EvalStats& now, const EvalStats& before) {
  EvalStats d;
  d.evaluations = now.evaluations - before.evaluations;
  d.scheduled = now.scheduled - before.scheduled;
  d.cache_hits = now.cache_hits - before.cache_hits;
  d.cache_misses = now.cache_misses - before.cache_misses;
  d.cache_skipped = now.cache_skipped - before.cache_skipped;
  d.rejections = now.rejections - before.rejections;
  d.trace_builds = now.trace_builds - before.trace_builds;
  d.delta_scheduled = now.delta_scheduled - before.delta_scheduled;
  d.sibling_batches = now.sibling_batches - before.sibling_batches;
  d.batches = now.batches - before.batches;
  d.eval_seconds = now.eval_seconds - before.eval_seconds;
  return d;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

std::string describe(const char* what, double a, double b) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "%s: %.17g vs %.17g", what, a, b);
  return buf;
}

}  // namespace

EvalEngineConfig emts_engine_config(const EmtsConfig& cfg) {
  EvalEngineConfig engine_cfg;
  engine_cfg.threads = cfg.threads;
  engine_cfg.use_rejection = cfg.use_rejection;
  engine_cfg.memoize = cfg.memoize;
  engine_cfg.kernel = cfg.kernel;
  engine_cfg.cancel = cfg.cancel;
  return engine_cfg;
}

EmtsResult traced_schedule(const EmtsConfig& cfg, EvaluationEngine& engine,
                           Tracer& tracer, Capture* capture) {
  if (cfg.use_random_seed) {
    throw std::invalid_argument("traced_schedule: random seed not traced");
  }
  const std::shared_ptr<const ProblemInstance>& instance = engine.instance();
  engine.set_cancel(cfg.cancel);
  const EvalStats stats_before = engine.stats();
  const int num_processors = instance->num_processors();
  WallTimer total_timer;
  EmtsResult result;

  WallTimer seed_timer;
  std::vector<Individual> seeds;
  const auto add_seed = [&](const std::string& label, Allocation alloc) {
    if (capture != nullptr) {
      const auto s = tracer.span("trace.capture");
      capture->seeds.push_back(alloc);
    }
    SeedInfo info;
    info.heuristic = label;
    {
      const auto s = tracer.span("eval.evaluate_one");
      info.makespan = engine.evaluate_one(alloc);
    }
    info.allocation = alloc;
    result.seeds.push_back(info);
    Individual ind;
    ind.genes = std::move(alloc);
    ind.origin = label;
    seeds.push_back(std::move(ind));
  };
  for (const std::string& name : cfg.seed_heuristics) {
    Allocation alloc;
    {
      const auto s = tracer.span("heuristics.seed");
      alloc = make_heuristic(name)->allocate(*instance);
    }
    add_seed(name, std::move(alloc));
  }
  if (cfg.use_delta_seed) {
    Allocation alloc;
    {
      const auto s = tracer.span("heuristics.seed");
      alloc = DeltaCriticalAllocation(cfg.delta).allocate(*instance);
    }
    add_seed("delta", std::move(alloc));
  }
  result.seeding_seconds = seed_timer.seconds();

  {
    const auto s = tracer.span("ea.run");
    EsConfig es_cfg;
    es_cfg.mu = cfg.mu;
    es_cfg.lambda = cfg.lambda;
    es_cfg.generations = cfg.generations;
    es_cfg.plus_selection = cfg.plus_selection;
    es_cfg.time_budget_seconds = cfg.time_budget_seconds;
    es_cfg.stagnation_limit = cfg.stagnation_limit;
    es_cfg.seed = cfg.seed;
    es_cfg.cancel = cfg.cancel;
    TracedEvaluator evaluator(engine, tracer, capture);
    EvolutionStrategy es(es_cfg, evaluator,
                         Emts::make_mutator(cfg.mutation, cfg.fm,
                                            cfg.generations, num_processors));
    es.set_tracked_mutator(Emts::make_tracked_mutator(
        cfg.mutation, cfg.fm, cfg.generations, num_processors));
    result.es = es.run(seeds);
  }

  result.eval_stats = stats_delta(engine.stats(), stats_before);
  result.rejected_evaluations = result.eval_stats.rejections;
  result.cancelled = result.es.stopped_by_cancellation;

  result.best_allocation = result.es.best.genes;
  {
    const auto s = tracer.span("sched.build_schedule");
    result.schedule = engine.build_schedule(result.best_allocation);
  }
  result.makespan = result.schedule.makespan();
  result.total_seconds = total_timer.seconds();
  return result;
}

EmtsResult traced_schedule(
    const EmtsConfig& cfg,
    const std::shared_ptr<const ProblemInstance>& instance, Tracer& tracer,
    Capture* capture) {
  if (instance == nullptr) {
    throw std::invalid_argument("traced_schedule: null problem instance");
  }
  std::unique_ptr<EvaluationEngine> engine;
  {
    const auto s = tracer.span("eval.engine_init");
    engine = std::make_unique<EvaluationEngine>(instance, cfg.mapping,
                                                emts_engine_config(cfg));
  }
  EmtsResult result = traced_schedule(cfg, *engine, tracer, capture);
  const auto s = tracer.span("eval.engine_exit");
  engine.reset();
  return result;
}

std::string same_result(const EmtsResult& a, const EmtsResult& b) {
  if (!same_bits(a.makespan, b.makespan)) {
    return describe("makespan", a.makespan, b.makespan);
  }
  if (a.best_allocation != b.best_allocation) return "best allocation differs";
  if (a.es.evaluations != b.es.evaluations) {
    return describe("ES evaluations", static_cast<double>(a.es.evaluations),
                    static_cast<double>(b.es.evaluations));
  }
  if (a.eval_stats.evaluations != b.eval_stats.evaluations) {
    return describe("engine evaluations",
                    static_cast<double>(a.eval_stats.evaluations),
                    static_cast<double>(b.eval_stats.evaluations));
  }
  if (a.seeds.size() != b.seeds.size()) return "seed count differs";
  for (std::size_t i = 0; i < a.seeds.size(); ++i) {
    if (!same_bits(a.seeds[i].makespan, b.seeds[i].makespan)) {
      return describe("seed makespan", a.seeds[i].makespan,
                      b.seeds[i].makespan);
    }
  }
  return {};
}

namespace {

double replay_engine(const Capture& capture,
                     const std::shared_ptr<const ProblemInstance>& instance,
                     const EmtsConfig& cfg, std::size_t threads,
                     std::string& mismatch) {
  EvalEngineConfig engine_cfg = emts_engine_config(cfg);
  engine_cfg.threads = threads;
  engine_cfg.cancel = nullptr;
  EvaluationEngine engine(instance, cfg.mapping, engine_cfg);
  // The run evaluated its seeds before the first batch; doing the same
  // leaves the memo cache in the state the run's batches saw.
  for (const Allocation& seed : capture.seeds) {
    (void)engine.evaluate_one(seed);
  }
  double seconds = 0.0;
  std::vector<Individual> pool;
  for (const Capture::Event& e : capture.events) {
    if (!e.is_batch) {
      engine.on_selection(e.generation, e.best, e.worst);
      continue;
    }
    pool = e.pool;
    const auto t0 = std::chrono::steady_clock::now();
    engine.evaluate_batch(pool, e.begin);
    seconds += std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
    for (std::size_t i = e.begin; i < pool.size(); ++i) {
      if (mismatch.empty() &&
          !same_bits(pool[i].fitness, e.fitness[i - e.begin])) {
        mismatch = describe("engine replay fitness", pool[i].fitness,
                            e.fitness[i - e.begin]);
      }
    }
  }
  return seconds;
}

}  // namespace

ReplayTimes replay(const Capture& capture,
                   const std::shared_ptr<const ProblemInstance>& instance,
                   const EmtsConfig& cfg, std::size_t threads,
                   std::string& mismatch) {
  ReplayTimes t;
  {
    ListScheduler scheduler(instance, cfg.mapping);
    std::vector<double> fitness;
    const auto t0 = std::chrono::steady_clock::now();
    for (const Capture::Event& e : capture.events) {
      if (!e.is_batch) continue;
      for (std::size_t i = e.begin; i < e.pool.size(); ++i) {
        fitness.push_back(scheduler.makespan(e.pool[i].genes));
      }
    }
    t.full_s = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
    t.full_evals = fitness.size();
    std::size_t k = 0;
    for (const Capture::Event& e : capture.events) {
      if (!e.is_batch) continue;
      for (const double f : e.fitness) {
        if (mismatch.empty() && !same_bits(fitness[k], f)) {
          mismatch = describe("full-pass replay fitness", fitness[k], f);
        }
        ++k;
      }
    }
  }
  t.engine_evals = t.full_evals;
  t.engine_t1_s = replay_engine(capture, instance, cfg, 1, mismatch);
  t.engine_tn_s = replay_engine(capture, instance, cfg, threads, mismatch);
  return t;
}

void TracedEmts::add(const EmtsResult& traced, const ReplayTimes& r) {
  ++jobs;
  replays.full_s += r.full_s;
  replays.full_evals += r.full_evals;
  replays.engine_t1_s += r.engine_t1_s;
  replays.engine_tn_s += r.engine_tn_s;
  replays.engine_evals += r.engine_evals;
  evaluations += traced.eval_stats.evaluations;
  cache_hits += traced.eval_stats.cache_hits;
  scheduled += traced.eval_stats.scheduled;
  delta_scheduled += traced.eval_stats.delta_scheduled;
}

void report_layers(const Tracer& tracer, const char* job_root,
                   const TracedEmts& emts, std::size_t threads,
                   Report& report) {
  const auto totals = tracer.totals();
  const auto self_s = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.self_s;
  };
  const auto total_s = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.total_s;
  };
  const auto per = [](double x, double n) { return n > 0.0 ? x / n : 0.0; };
  const double jobs = static_cast<double>(emts.jobs);
  const double capture_s = total_s("trace.capture");
  const double emts_s = total_s("emts.job") - capture_s;

  report.metric("emts.job_ms", per(emts_s * 1e3, jobs), "ms");
  report.metric("emts.self_ms", per(self_s("emts.job") * 1e3, jobs), "ms");
  report.metric("heuristics.seed_ms",
                per(self_s("heuristics.seed") * 1e3, jobs), "ms");
  report.metric("eval.seed_eval_ms",
                per(self_s("eval.evaluate_one") * 1e3, jobs), "ms");
  report.metric(
      "eval.batch_ms",
      per((self_s("eval.batch") + self_s("eval.on_selection")) * 1e3, jobs),
      "ms");
  if (totals.count("eval.engine_init") != 0) {
    report.metric(
        "eval.engine_ms",
        per((self_s("eval.engine_init") + self_s("eval.engine_exit")) * 1e3,
            jobs),
        "ms");
  }
  report.metric("ea.self_ms", per(self_s("ea.run") * 1e3, jobs), "ms");
  report.metric("sched.build_schedule_ms",
                per(self_s("sched.build_schedule") * 1e3, jobs), "ms");
  const auto instances = totals.find("core.instance");
  if (instances != totals.end()) {
    report.metric("core.instance_ms",
                  per(instances->second.self_s * 1e3,
                      static_cast<double>(instances->second.count)),
                  "ms");
  }

  report.metric("trace.overhead_frac", per(emts_s, emts.untraced_s) - 1.0,
                "ratio");
  const double root_s = total_s(job_root) - capture_s;
  const double glue_s = self_s("emts.job") + self_s("serve.request");
  const double coverage = 1.0 - per(glue_s, root_s);
  report.metric("trace.coverage_frac", coverage, "ratio");
  // A lower share would mean the ledger misses a layer.
  report.require(coverage >= 0.95,
                 "layer spans cover only " + exact(coverage) +
                     " of the traced job time");

  const ReplayTimes& r = emts.replays;
  const double full_ns =
      per(r.full_s * 1e9, static_cast<double>(r.full_evals));
  const double t1_ns =
      per(r.engine_t1_s * 1e9, static_cast<double>(r.engine_evals));
  report.metric("sched.full_ns_per_eval", full_ns, "ns");
  report.metric("eval.ns_per_eval_t1", t1_ns, "ns");
  report.metric("eval.overhead_vs_full", per(t1_ns, full_ns), "ratio");
  const double speedup = per(r.engine_t1_s, r.engine_tn_s);
  report.metric("eval.speedup_tN", speedup, "ratio");
  report.metric("eval.parallel_eff",
                per(speedup, static_cast<double>(threads)), "ratio");
  report.metric("eval.memo_hit_frac",
                per(static_cast<double>(emts.cache_hits),
                    static_cast<double>(emts.evaluations)),
                "ratio");
  report.metric("eval.delta_frac",
                per(static_cast<double>(emts.delta_scheduled),
                    static_cast<double>(emts.scheduled)),
                "ratio");
  report.metric("eval.evals_per_job",
                per(static_cast<double>(emts.evaluations), jobs), "count");
  report.info["replay_threads"] = static_cast<std::uint64_t>(threads);
  report.ledger = ledger_of(tracer);
}

}  // namespace ptgbench
