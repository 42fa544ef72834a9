#pragma once
// EMTS — Evolutionary Moldable Task Scheduling (Section III; the paper's
// primary contribution).
//
// EMTS is a two-step scheduler. Step 1 (allocation) runs a (mu + lambda)
// evolution strategy over per-task processor allocations, seeded with the
// results of the MCPA and HCPA allocation procedures plus a Delta-critical
// heuristic; reproduction is mutation-only with the operator in
// src/emts/mutation. Step 2 (mapping, also the fitness function) is the
// bottom-level list scheduler in src/sched. The paper's configurations:
//
//   EMTS5  — (5 + 25)-EA,  5 generations   (emts5_config())
//   EMTS10 — (10 + 100)-EA, 10 generations (emts10_config())
//
// Because selection is elitist and the seed allocations join the initial
// population, the final makespan never exceeds the best seed heuristic's
// makespan under the same mapping.

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ea/evolution.hpp"
#include "emts/mutation.hpp"
#include "eval/evaluation_engine.hpp"
#include "heuristics/allocation_heuristic.hpp"
#include "sched/list_scheduler.hpp"
#include "sched/schedule.hpp"

namespace ptgsched {

struct EmtsConfig {
  std::size_t mu = 5;
  std::size_t lambda = 25;
  std::size_t generations = 5;   ///< U.
  double fm = 0.33;              ///< Initial mutated allele fraction.
  MutationParams mutation;       ///< Eq. 1 operator parameters.
  double delta = 0.9;            ///< Delta-critical seed threshold.
  /// Allocation heuristics whose results seed the initial population.
  std::vector<std::string> seed_heuristics = {"mcpa", "hcpa"};
  bool use_delta_seed = true;    ///< Add the Delta-critical seed.
  bool use_random_seed = false;  ///< Add one uniform-random seed (ablation).
  bool plus_selection = true;    ///< Plus vs Comma strategy (ablation).
  double time_budget_seconds = 0.0;  ///< 0 = unlimited.
  std::size_t stagnation_limit = 0;  ///< 0 = off.
  std::uint64_t seed = 1;        ///< RNG seed for the whole optimization.
  std::size_t threads = 0;       ///< Fitness-evaluation threads; 0 = inline.
  ListSchedulerOptions mapping;  ///< Mapping policy (fitness function).
  /// Rejection strategy (the paper's Section VI future work): abort
  /// fitness evaluations as soon as the partially built schedule provably
  /// exceeds the worst fitness surviving the previous selection. Such an
  /// offspring could never enter the plus-selected population, so the
  /// evolution trajectory (and the final schedule) is bit-identical to a
  /// run without rejection — only cheaper. Requires plus selection.
  bool use_rejection = false;
  /// Forwarded to EvalEngineConfig::kernel: unset or Full.
  std::optional<KernelMode> kernel;  // Read by benchmark/src/recompose.cpp:99.
  /// Memoize exact makespans per allocation in the evaluation engine.
  /// Mutants frequently collide with their parents and each other under
  /// small mutation counts; a hit returns the exact cached value, so the
  /// evolution trajectory and final schedule are bit-identical either way.
  bool memoize = true;
  /// Cooperative cancellation (not owned; must outlive schedule()). A
  /// cancel observed mid-run drains the evaluation pool, skips remaining
  /// generations, and returns the best-so-far schedule with
  /// EmtsResult::cancelled set — never a torn result.
  const CancellationToken* cancel = nullptr;
};

/// The paper's EMTS5: (5 + 25)-EA over 5 generations.
[[nodiscard]] EmtsConfig emts5_config();
/// The paper's EMTS10: (10 + 100)-EA over 10 generations.
[[nodiscard]] EmtsConfig emts10_config();

struct SeedInfo {
  std::string heuristic;
  double makespan = 0.0;
  Allocation allocation;
};

struct EmtsResult {
  Allocation best_allocation;
  double makespan = 0.0;
  Schedule schedule;          ///< Best allocation mapped onto the cluster.
  std::vector<SeedInfo> seeds;
  EsResult es;                ///< Convergence history and counters.
  /// Evaluation-engine telemetry for the whole run (seed evaluations
  /// included): throughput, cache hits, rejections, eval wall time.
  EvalStats eval_stats;
  std::size_t rejected_evaluations = 0;  ///< Early-rejected mappings.
  double seeding_seconds = 0.0;
  double total_seconds = 0.0;
  /// The run was cut short by a cancellation request; `schedule` is the
  /// valid best-so-far schedule (at worst the best seed heuristic's).
  bool cancelled = false;
};

/// EMTS scheduler instance. Stateless apart from its configuration, so one
/// instance can schedule many PTGs (each call is deterministic in
/// (config.seed, graph, model, cluster)).
class Emts {
 public:
  explicit Emts(EmtsConfig config = emts5_config());

  [[nodiscard]] const EmtsConfig& config() const noexcept { return config_; }

  /// The evaluation-engine configuration schedule(instance) builds its
  /// engine with: threads, rejection, memo, kernel and cancellation token
  /// taken from config().
  [[nodiscard]] EvalEngineConfig engine_config() const;

  /// Run the full EMTS pipeline against a shared problem core (the
  /// heuristic seeds, every fitness evaluation, and the final mapping all
  /// read the same precomputed instance).
  [[nodiscard]] EmtsResult schedule(
      const std::shared_ptr<const ProblemInstance>& instance) const;

  /// Run against a caller-owned (typically pooled — see
  /// eval/engine_pool.hpp) evaluation engine instead of building one.
  /// The run binds the engine's cancellation token to config().cancel and
  /// uses the engine's mapping policy and memo cache as-is; memo hits
  /// return exact values, so a warm engine yields results bit-identical
  /// to a cold one. EmtsResult::eval_stats covers this run only. The
  /// engine must be quiescent (one run per engine at a time).
  [[nodiscard]] EmtsResult schedule(EvaluationEngine& engine) const;

  /// The mutation operator EMTS plugs into the generic ES; exposed for
  /// tests and ablations. `U` and `P` are fixed per run.
  [[nodiscard]] static MutateFn make_mutator(MutationParams params, double fm,
                                             std::size_t generations, int P);

  /// make_mutator behind the TrackedMutateFn signature; reports nothing
  /// into `touched`. Used by benchmark/src/recompose.cpp:169.
  [[nodiscard]] static TrackedMutateFn make_tracked_mutator(
      MutationParams params, double fm, std::size_t generations, int P);

 private:
  EmtsConfig config_;
};

}  // namespace ptgsched
