#pragma once
// Experiment harness for the paper's evaluation (Section IV/V).
//
// Runs the baseline heuristics and an EMTS configuration over a workload
// corpus on one or more platforms and aggregates the *relative makespans*
// T_baseline / T_EMTS with 95% confidence intervals — the quantity plotted
// in Figures 4 and 5. A ratio above 1 means EMTS produced the shorter
// schedule.

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "emts/emts.hpp"
#include "support/cancellation.hpp"
#include "support/json.hpp"
#include "support/stats.hpp"

namespace ptgsched {

struct ComparisonConfig {
  /// Workload classes: subset of {"fft","strassen","layered","irregular"}.
  std::vector<std::string> classes = {"fft", "strassen", "layered",
                                      "irregular"};
  int num_tasks = 100;  ///< Task count for the DAGGEN classes.
  std::vector<std::string> platforms = {"chti", "grelon"};
  std::string model = "amdahl";  ///< Execution-time model name.
  /// Instances per class; 0 selects the paper-scale corpus size.
  std::size_t instances = 0;
  /// Baselines whose schedules are divided by EMTS's.
  std::vector<std::string> baselines = {"mcpa", "hcpa"};
  EmtsConfig emts = emts5_config();
  std::string emts_label = "emts5";
  std::uint64_t seed = 42;  ///< Base seed for corpora and EMTS runs.
};

/// Result for one (graph instance, platform).
struct InstanceResult {
  std::string cls;
  std::string graph;
  std::string platform;
  std::size_t index = 0;  ///< Instance index within its (class) corpus.
  std::size_t num_graph_tasks = 0;
  double emts_makespan = 0.0;
  double emts_seconds = 0.0;
  std::size_t emts_evaluations = 0;
  /// Evaluation-engine telemetry (EmtsResult::eval_stats): list-scheduler
  /// passes actually run, memo-cache hits, early rejections, and wall
  /// seconds spent evaluating fitness.
  std::size_t emts_scheduled = 0;
  std::size_t emts_cache_hits = 0;
  std::size_t emts_rejections = 0;
  double emts_eval_seconds = 0.0;
  /// Attempts beyond the first that this unit needed (see
  /// ComparisonHooks::max_retries); 0 on the usual first-try success.
  int retries = 0;
  /// The per-unit deadline (or configured time budget) cut the EMTS run
  /// short; the recorded makespan is still a valid best-so-far schedule.
  bool hit_time_budget = false;
  std::map<std::string, double> baseline_makespans;
};

/// Round-trippable JSON form of an InstanceResult (doubles serialize with
/// %.17g, so replaying a checkpointed unit reproduces bit-identical
/// aggregates).
[[nodiscard]] Json instance_result_to_json(const InstanceResult& ir);
[[nodiscard]] InstanceResult instance_result_from_json(const Json& doc);

/// Structured error taxonomy for failed campaign units.
enum class UnitErrorKind {
  kInputError,  ///< Malformed graph/platform/JSON input (not retried).
  kEvalError,   ///< Evaluator/scheduler failure (retried with fresh seed).
  kTimeout,     ///< Per-unit deadline overrun reported as DeadlineError.
  kCancelled,   ///< Cooperative cancellation stopped the unit.
};

/// Stable wire name: "input_error" | "eval_error" | "timeout" | "cancelled".
[[nodiscard]] const char* unit_error_kind_name(UnitErrorKind kind) noexcept;

/// Map an exception to the taxonomy: CancelledError -> cancelled (unless
/// its CancelReason is kDeadline, which is a timeout), DeadlineError ->
/// timeout, input-shaped errors (GraphError, PlatformError, JsonError,
/// LoadError, invalid_argument) -> input_error, anything else ->
/// eval_error.
[[nodiscard]] UnitErrorKind classify_unit_error(const std::exception& e);

/// One failed (class, platform, instance) unit.
struct UnitFailure {
  std::string cls;
  std::string platform;
  std::size_t index = 0;
  UnitErrorKind kind = UnitErrorKind::kEvalError;
  std::string message{};  ///< what() of the last attempt's exception.
  int attempts = 1;       ///< Total attempts made (1 = failed without retry).
};

[[nodiscard]] Json unit_failure_to_json(const UnitFailure& f);

/// Unit-isolation policy shared by every campaign phase: run_comparison
/// (Figures 4/5) and the campaign's gap and robustness phases all run their
/// units through run_unit_attempts with one of these. All members are
/// optional; the default-constructed hooks reproduce the historical
/// all-or-nothing run exactly (same seeds, same trajectory).
struct ComparisonHooks {
  /// run_comparison consults it before each unit executes; a populated
  /// return value is used verbatim (checkpoint replay) and the unit is not
  /// re-run.
  std::function<std::optional<InstanceResult>(
      const std::string& cls, const std::string& platform, std::size_t index)>
      lookup;
  /// run_comparison calls it after every freshly executed unit (checkpoint
  /// append), outside the retry loop. A throw from this hook aborts the
  /// sweep (the journal must stay trustworthy); the unit is not retried.
  std::function<void(const InstanceResult&)> on_unit;
  /// Called once per unit that exhausted its attempts, outside the retry
  /// loop; a throw from it aborts the sweep too.
  std::function<void(const UnitFailure&)> on_failure;
  /// Fault-injection seam for tests: invoked at the start of every attempt
  /// with (cls, platform, index, attempt); a throw fails that attempt and
  /// is classified through the taxonomy like any evaluator error.
  std::function<void(const std::string& cls, const std::string& platform,
                     std::size_t index, int attempt)>
      before_attempt;
  /// Cooperative cancellation: checked between units (and, via EmtsConfig,
  /// inside each EMTS run) and while backing off before a retry. On cancel
  /// the sweep stops issuing units and returns with
  /// ComparisonResult::cancelled set.
  const CancellationToken* cancel = nullptr;
  /// Extra attempts after a unit's first failure. Retries re-derive the
  /// unit's seed with a per-attempt salt, so a poisoned trajectory is not
  /// replayed verbatim; input errors are deterministic and not retried.
  int max_retries = 0;
  /// Per-unit wall-clock deadline plumbed into EmtsConfig::
  /// time_budget_seconds (tightening any existing budget); 0 = off.
  double unit_deadline_seconds = 0.0;
  /// Base delay for exponential backoff between retry attempts, with
  /// deterministic seed-derived jitter (see support/backoff.hpp); capped
  /// by unit_deadline_seconds so backoff alone never blows the deadline.
  /// 0 preserves the historical immediate retry.
  double retry_backoff_seconds = 0.0;
};

/// Run one unit under the isolation policy of `hooks`: call
/// `attempt(n)` for n = 0, 1, ... until one returns, calling
/// hooks.before_attempt(failure.cls, failure.platform, failure.index, n)
/// first each time. A failed attempt is classified (classify_unit_error)
/// into `failure`; input errors and cancellation are not retried, and
/// every other error is retried up to hooks.max_retries times after a
/// jittered backoff keyed by `jitter_seed`. A cancel during that backoff
/// ends the unit as cancelled. Returns true once an attempt returns. On
/// exhaustion it reports `failure` through hooks.on_failure and returns
/// false. Only `attempt` runs inside the retry: the caller journals and
/// aggregates a success after this returns, so a journal failure
/// propagates instead of re-running the unit.
[[nodiscard]] bool run_unit_attempts(
    const ComparisonHooks& hooks, std::uint64_t jitter_seed,
    UnitFailure& failure, const std::function<void(int attempt)>& attempt);

/// Aggregated cell: mean relative makespan of one baseline vs EMTS for one
/// (class, platform) pair — one bar of Figure 4/5.
struct RatioCell {
  std::string cls;
  std::string platform;
  std::string baseline;
  ConfidenceInterval ratio;  ///< T_baseline / T_EMTS, 95% CI.
  /// Two-sided Wilcoxon signed-rank p-value for paired makespans
  /// (baseline vs EMTS): small values mean the improvement is systematic.
  double p_value = 1.0;
};

struct ComparisonResult {
  ComparisonConfig config;
  std::vector<InstanceResult> instances;
  std::vector<RatioCell> cells;
  /// Units that failed every attempt (the sweep continued past them).
  std::vector<UnitFailure> failures;
  /// A cancellation request stopped the sweep early; `instances`/`cells`
  /// cover only the units completed before the cancel.
  bool cancelled = false;
};

/// Optional progress callback: (done, total) instance counts.
using ProgressFn = std::function<void(std::size_t, std::size_t)>;

/// Run the full comparison. Deterministic in config.seed; with
/// default-constructed hooks the trajectory is identical to the historical
/// all-or-nothing implementation. Each unit runs through run_unit_attempts:
/// its failures are isolated (recorded in ComparisonResult::failures, sweep
/// continues) instead of aborting the whole run, while a throw from
/// hooks.on_unit or hooks.on_failure propagates.
[[nodiscard]] ComparisonResult run_comparison(
    const ComparisonConfig& config, const ProgressFn& progress = {},
    const ComparisonHooks& hooks = {});

/// Paper-style text table of the aggregated cells
/// (class platform baseline mean ci_lo ci_hi n).
[[nodiscard]] std::string format_ratio_table(
    const std::vector<RatioCell>& cells, const std::string& emts_label);

/// Per-instance CSV dump (one row per instance x baseline).
void write_instances_csv(const ComparisonResult& result,
                         const std::string& path);

/// Aggregate CSV (one row per cell).
void write_cells_csv(const ComparisonResult& result, const std::string& path);

}  // namespace ptgsched
