#pragma once
// The traced EMTS pipeline: Emts::schedule rebuilt from its public steps,
// with a span around each layer call, plus replays of the captured
// evaluation batches that time the mapping pass and the engine in
// isolation.
//
// traced_schedule() performs exactly the calls Emts::schedule performs, in
// the same order and with the same EvalEngineConfig: seed heuristics,
// EvaluationEngine::evaluate_one per seed, an EvolutionStrategy with the
// tracked mutator over a span-recording BatchEvaluator that delegates to
// the engine, and EvaluationEngine::build_schedule. Its result must equal
// Emts::schedule's bit for bit; same_result() checks that, and the
// benchmark's ctest asserts it so the ledger cannot drift from the real
// pipeline when emts.cpp changes.

#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "emts/emts.hpp"
#include "trace.hpp"

namespace ptgbench {

/// Every evaluate_batch and on_selection call of one EMTS run, in order,
/// with the pool as the engine received it and the fitness it assigned.
struct Capture {
  struct Event {
    bool is_batch = true;
    std::vector<ptgsched::Individual> pool;  ///< Batch: pool before the call.
    std::size_t begin = 0;
    std::vector<double> fitness;  ///< Batch: fitness of pool[begin..).
    std::size_t generation = 0;   ///< Selection arguments.
    double best = 0.0;
    double worst = 0.0;
  };
  std::vector<ptgsched::Allocation> seeds;  ///< evaluate_one arguments.
  std::vector<Event> events;

  void clear() {
    seeds.clear();
    events.clear();
  }
};

/// The engine configuration Emts::schedule(instance) builds for `cfg`.
[[nodiscard]] ptgsched::EvalEngineConfig emts_engine_config(
    const ptgsched::EmtsConfig& cfg);

/// Emts(cfg).schedule(engine), recomposed with spans. Copying the pools
/// into `capture` (when non-null) is recorded as "trace.capture" spans so
/// it can be subtracted from the job time.
[[nodiscard]] ptgsched::EmtsResult traced_schedule(
    const ptgsched::EmtsConfig& cfg, ptgsched::EvaluationEngine& engine,
    Tracer& tracer, Capture* capture);

/// Emts(cfg).schedule(instance), recomposed with spans: builds the engine
/// (span "eval.engine_init") and runs the engine overload.
[[nodiscard]] ptgsched::EmtsResult traced_schedule(
    const ptgsched::EmtsConfig& cfg,
    const std::shared_ptr<const ptgsched::ProblemInstance>& instance,
    Tracer& tracer, Capture* capture);

/// Empty when `a` and `b` agree bit for bit on makespan, allocation, seed
/// makespans and evaluation counts; otherwise the first difference.
[[nodiscard]] std::string same_result(const ptgsched::EmtsResult& a,
                                      const ptgsched::EmtsResult& b);

/// Wall time and evaluation counts of the replays of one captured run.
struct ReplayTimes {
  double full_s = 0.0;        ///< ListScheduler::makespan over all offspring.
  std::size_t full_evals = 0;
  double engine_t1_s = 0.0;   ///< evaluate_batch, fresh engine, 1 thread.
  double engine_tn_s = 0.0;   ///< Same batches at `threads` threads.
  std::size_t engine_evals = 0;
};

/// Replays `capture` through a plain ListScheduler and through fresh
/// engines (configured like the run's, at 1 and at `threads` threads).
/// Every replayed fitness must equal the captured one; the first mismatch
/// is written to `mismatch`.
[[nodiscard]] ReplayTimes replay(
    const Capture& capture,
    const std::shared_ptr<const ptgsched::ProblemInstance>& instance,
    const ptgsched::EmtsConfig& cfg, std::size_t threads,
    std::string& mismatch);

/// Sums over the EMTS jobs of a traced run.
struct TracedEmts {
  std::size_t jobs = 0;
  double untraced_s = 0.0;  ///< Emts::schedule wall time of the same jobs.
  ReplayTimes replays;
  std::size_t evaluations = 0;  ///< Engine evaluations (EvalStats).
  std::size_t cache_hits = 0;
  std::size_t scheduled = 0;
  std::size_t delta_scheduled = 0;

  void add(const ptgsched::EmtsResult& traced, const ReplayTimes& r);
};

/// The per-layer metrics every workload reports, from the spans of the
/// traced run and the sums in `emts`. `job_root` names the span that
/// wraps one job ("emts.job" offline, "serve.request" for serve).
void report_layers(const Tracer& tracer, const char* job_root,
                   const TracedEmts& emts, std::size_t threads,
                   Report& report);

}  // namespace ptgbench
