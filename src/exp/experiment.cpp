#include "exp/experiment.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "daggen/corpus.hpp"
#include "heuristics/allocation_heuristic.hpp"
#include "sched/list_scheduler.hpp"
#include "support/atomic_io.hpp"
#include "support/backoff.hpp"
#include "support/error_context.hpp"
#include "support/strings.hpp"

namespace ptgsched {

namespace {

/// Per-unit EMTS seed. Attempt 0 reproduces the historical derivation
/// bit-for-bit; retries salt the platform stream so a failing trajectory
/// is not replayed verbatim.
std::uint64_t unit_seed(std::uint64_t base, const std::string& cls,
                        const std::string& platform_name, std::size_t index,
                        int attempt) {
  std::uint64_t platform_salt =
      splitmix64(std::hash<std::string>{}(platform_name));
  if (attempt > 0) {
    platform_salt = splitmix64(
        platform_salt ^
        (std::uint64_t{0xA77E0000} + static_cast<std::uint64_t>(attempt)));
  }
  return derive_seed(base, splitmix64(std::hash<std::string>{}(cls)),
                     platform_salt, index);
}

/// Execute one (class, platform, instance) unit: baselines + EMTS.
InstanceResult run_unit(const ComparisonConfig& config,
                        const ComparisonHooks& hooks, const std::string& cls,
                        const Ptg& g, const std::string& platform_name,
                        const std::shared_ptr<const Cluster>& cluster,
                        const std::shared_ptr<const ExecutionTimeModel>& model,
                        std::size_t index, int attempt) {
  InstanceResult ir;
  ir.cls = cls;
  ir.graph = g.name();
  ir.platform = platform_name;
  ir.index = index;
  ir.num_graph_tasks = g.num_tasks();
  ir.retries = attempt;

  // One shared problem core per unit: the baseline heuristics, their
  // mapping, and the whole EMTS run below read the same precomputed
  // tables. It owns a copy of the corpus graph.
  const auto instance =
      ProblemInstance::create(std::make_shared<const Ptg>(g), model, cluster);

  // Baselines: allocation heuristic + shared list-scheduler mapping.
  ListScheduler mapper(instance, config.emts.mapping);
  for (const std::string& baseline : config.baselines) {
    const auto heuristic = make_heuristic(baseline);
    const Allocation alloc = heuristic->allocate(*instance);
    ir.baseline_makespans[baseline] = mapper.makespan(alloc);
  }

  // EMTS, seeded deterministically per (instance, platform, attempt).
  EmtsConfig emts_cfg = config.emts;
  emts_cfg.seed = unit_seed(config.seed, cls, platform_name, index, attempt);
  emts_cfg.cancel = hooks.cancel;
  if (hooks.unit_deadline_seconds > 0.0) {
    emts_cfg.time_budget_seconds =
        emts_cfg.time_budget_seconds > 0.0
            ? std::min(emts_cfg.time_budget_seconds,
                       hooks.unit_deadline_seconds)
            : hooks.unit_deadline_seconds;
  }
  const Emts emts(emts_cfg);
  const EmtsResult er = emts.schedule(instance);
  if (er.cancelled) {
    // A mid-unit cancel yields a valid best-so-far schedule, but the unit
    // did not run to completion — it must not enter the aggregates or the
    // checkpoint journal, or a resumed run would diverge.
    throw CancelledError(
        "unit cancelled mid-run (" + cls + "/" + platform_name + "/#" +
            std::to_string(index) + ")",
        hooks.cancel != nullptr ? hooks.cancel->reason()
                                : CancelReason::kNone);
  }
  ir.emts_makespan = er.makespan;
  ir.emts_seconds = er.total_seconds;
  ir.emts_evaluations = er.es.evaluations;
  ir.emts_scheduled = er.eval_stats.scheduled;
  ir.emts_cache_hits = er.eval_stats.cache_hits;
  ir.emts_rejections = er.eval_stats.rejections;
  ir.emts_eval_seconds = er.eval_stats.eval_seconds;
  ir.hit_time_budget = er.es.stopped_by_time_budget;
  return ir;
}

}  // namespace

const char* unit_error_kind_name(UnitErrorKind kind) noexcept {
  switch (kind) {
    case UnitErrorKind::kInputError: return "input_error";
    case UnitErrorKind::kEvalError: return "eval_error";
    case UnitErrorKind::kTimeout: return "timeout";
    case UnitErrorKind::kCancelled: return "cancelled";
  }
  return "eval_error";
}

UnitErrorKind classify_unit_error(const std::exception& e) {
  if (const auto* c = dynamic_cast<const CancelledError*>(&e)) {
    // A cancel whose recorded reason is a deadline expiry is a timeout in
    // operator terms — "the work was too slow", not "someone stopped it".
    return c->reason() == CancelReason::kDeadline ? UnitErrorKind::kTimeout
                                                  : UnitErrorKind::kCancelled;
  }
  if (dynamic_cast<const DeadlineError*>(&e) != nullptr) {
    return UnitErrorKind::kTimeout;
  }
  if (dynamic_cast<const GraphError*>(&e) != nullptr ||
      dynamic_cast<const PlatformError*>(&e) != nullptr ||
      dynamic_cast<const JsonError*>(&e) != nullptr ||
      dynamic_cast<const LoadError*>(&e) != nullptr ||
      dynamic_cast<const std::invalid_argument*>(&e) != nullptr) {
    return UnitErrorKind::kInputError;
  }
  return UnitErrorKind::kEvalError;
}

bool run_unit_attempts(const ComparisonHooks& hooks, std::uint64_t jitter_seed,
                       UnitFailure& failure,
                       const std::function<void(int attempt)>& attempt) {
  for (int n = 0; n <= hooks.max_retries; ++n) {
    try {
      if (hooks.before_attempt) {
        hooks.before_attempt(failure.cls, failure.platform, failure.index, n);
      }
      attempt(n);
      return true;
    } catch (const std::exception& e) {
      failure.kind = classify_unit_error(e);
      failure.message = e.what();
      failure.attempts = n + 1;
    }
    // Input errors are deterministic; cancellation ends the sweep.
    if (failure.kind == UnitErrorKind::kInputError ||
        failure.kind == UnitErrorKind::kCancelled) {
      break;
    }
    if (n < hooks.max_retries) {
      const double delay = backoff_delay_seconds(
          n + 1, hooks.retry_backoff_seconds, hooks.unit_deadline_seconds,
          jitter_seed);
      if (!backoff_sleep(delay, hooks.cancel)) {
        failure.kind = UnitErrorKind::kCancelled;
        failure.message = "cancelled while backing off before retry";
        break;
      }
    }
  }
  if (hooks.on_failure) hooks.on_failure(failure);
  return false;
}

Json instance_result_to_json(const InstanceResult& ir) {
  Json o = Json::object();
  o.set("class", ir.cls);
  o.set("graph", ir.graph);
  o.set("platform", ir.platform);
  o.set("index", static_cast<std::int64_t>(ir.index));
  o.set("tasks", static_cast<std::int64_t>(ir.num_graph_tasks));
  o.set("emts_makespan", ir.emts_makespan);
  o.set("emts_seconds", ir.emts_seconds);
  o.set("emts_evaluations", static_cast<std::int64_t>(ir.emts_evaluations));
  o.set("emts_scheduled", static_cast<std::int64_t>(ir.emts_scheduled));
  o.set("emts_cache_hits", static_cast<std::int64_t>(ir.emts_cache_hits));
  o.set("emts_rejections", static_cast<std::int64_t>(ir.emts_rejections));
  o.set("emts_eval_seconds", ir.emts_eval_seconds);
  o.set("retries", ir.retries);
  o.set("hit_time_budget", ir.hit_time_budget);
  Json baselines = Json::object();
  for (const auto& [name, makespan] : ir.baseline_makespans) {
    baselines.set(name, makespan);
  }
  o.set("baselines", std::move(baselines));
  return o;
}

InstanceResult instance_result_from_json(const Json& doc) {
  InstanceResult ir;
  ir.cls = json_require(doc, "class", "instance result").as_string();
  ir.graph = json_require(doc, "graph", "instance result").as_string();
  ir.platform = json_require(doc, "platform", "instance result").as_string();
  ir.index = static_cast<std::size_t>(doc.get_or("index", std::int64_t{0}));
  ir.num_graph_tasks =
      static_cast<std::size_t>(doc.get_or("tasks", std::int64_t{0}));
  ir.emts_makespan =
      json_require(doc, "emts_makespan", "instance result").as_double();
  ir.emts_seconds = doc.get_or("emts_seconds", 0.0);
  ir.emts_evaluations = static_cast<std::size_t>(
      doc.get_or("emts_evaluations", std::int64_t{0}));
  ir.emts_scheduled =
      static_cast<std::size_t>(doc.get_or("emts_scheduled", std::int64_t{0}));
  ir.emts_cache_hits =
      static_cast<std::size_t>(doc.get_or("emts_cache_hits", std::int64_t{0}));
  ir.emts_rejections =
      static_cast<std::size_t>(doc.get_or("emts_rejections", std::int64_t{0}));
  ir.emts_eval_seconds = doc.get_or("emts_eval_seconds", 0.0);
  ir.retries = static_cast<int>(doc.get_or("retries", std::int64_t{0}));
  ir.hit_time_budget = doc.get_or("hit_time_budget", false);
  for (const auto& [name, value] :
       json_require(doc, "baselines", "instance result").as_object()) {
    ir.baseline_makespans[name] = value.as_double();
  }
  return ir;
}

Json unit_failure_to_json(const UnitFailure& f) {
  Json o = Json::object();
  o.set("class", f.cls);
  o.set("platform", f.platform);
  o.set("index", static_cast<std::int64_t>(f.index));
  o.set("kind", unit_error_kind_name(f.kind));
  o.set("message", f.message);
  o.set("attempts", f.attempts);
  return o;
}

ComparisonResult run_comparison(const ComparisonConfig& config,
                                const ProgressFn& progress,
                                const ComparisonHooks& hooks) {
  if (config.classes.empty() || config.platforms.empty() ||
      config.baselines.empty()) {
    throw std::invalid_argument("run_comparison: empty class/platform/baseline list");
  }
  const auto model = make_model(config.model);

  ComparisonResult result;
  result.config = config;

  // Generate all corpora first so the total instance count is known.
  std::vector<std::pair<std::string, std::vector<Ptg>>> corpora;
  std::size_t total = 0;
  for (const std::string& cls : config.classes) {
    const std::size_t count =
        config.instances > 0 ? config.instances : paper_corpus_size(cls);
    corpora.emplace_back(
        cls, corpus_by_name(cls, config.num_tasks, count, config.seed));
    total += corpora.back().second.size() * config.platforms.size();
  }

  std::size_t done = 0;
  for (const auto& [cls, graphs] : corpora) {
    if (result.cancelled) break;
    for (const std::string& platform_name : config.platforms) {
      if (result.cancelled) break;
      const auto cluster =
          std::make_shared<const Cluster>(platform_by_name(platform_name));
      for (std::size_t i = 0; i < graphs.size(); ++i) {
        if (hooks.cancel != nullptr && hooks.cancel->cancelled()) {
          result.cancelled = true;
          break;
        }

        // Checkpoint replay: a journaled unit is used verbatim.
        if (hooks.lookup) {
          if (std::optional<InstanceResult> replayed =
                  hooks.lookup(cls, platform_name, i)) {
            result.instances.push_back(std::move(*replayed));
            ++done;
            if (progress) progress(done, total);
            continue;
          }
        }

        // Per-unit isolation: a failing unit is retried with a fresh
        // derived seed, then recorded in the error taxonomy — it never
        // aborts the sweep. Backoff jitter is keyed off the unit's base
        // seed.
        UnitFailure failure{.cls = cls, .platform = platform_name, .index = i};
        std::optional<InstanceResult> ir;
        if (run_unit_attempts(
                hooks, unit_seed(config.seed, cls, platform_name, i, 0),
                failure, [&](int attempt) {
                  ir = run_unit(config, hooks, cls, graphs[i], platform_name,
                                cluster, model, i, attempt);
                })) {
          if (hooks.on_unit) hooks.on_unit(*ir);
          result.instances.push_back(std::move(*ir));
        } else {
          result.failures.push_back(failure);
          if (failure.kind == UnitErrorKind::kCancelled) {
            result.cancelled = true;
            break;
          }
        }
        ++done;
        if (progress) progress(done, total);
      }
    }
  }

  // Aggregate into Figure 4/5 cells.
  for (const auto& [cls, graphs] : corpora) {
    (void)graphs;
    for (const std::string& platform_name : config.platforms) {
      for (const std::string& baseline : config.baselines) {
        std::vector<double> ratios;
        std::vector<double> base_makespans;
        std::vector<double> emts_makespans;
        for (const InstanceResult& ir : result.instances) {
          if (ir.cls != cls || ir.platform != platform_name) continue;
          const double base = ir.baseline_makespans.at(baseline);
          if (!(ir.emts_makespan > 0.0)) continue;
          ratios.push_back(base / ir.emts_makespan);
          base_makespans.push_back(base);
          emts_makespans.push_back(ir.emts_makespan);
        }
        if (ratios.empty()) continue;
        RatioCell cell;
        cell.cls = cls;
        cell.platform = platform_name;
        cell.baseline = baseline;
        cell.ratio = mean_confidence_interval(ratios, 0.95);
        cell.p_value = wilcoxon_signed_rank(base_makespans, emts_makespans);
        result.cells.push_back(std::move(cell));
      }
    }
  }
  return result;
}

std::string format_ratio_table(const std::vector<RatioCell>& cells,
                               const std::string& emts_label) {
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"class", "platform", "ratio T_x/T_" + emts_label, "mean",
                  "ci95_lo", "ci95_hi", "n", "wilcoxon_p"});
  for (const RatioCell& c : cells) {
    rows.push_back({c.cls, c.platform, c.baseline,
                    format_double(c.ratio.mean, 4),
                    format_double(c.ratio.lo, 4),
                    format_double(c.ratio.hi, 4),
                    std::to_string(c.ratio.n),
                    strfmt("%.2g", c.p_value)});
  }
  return render_table(rows);
}

void write_instances_csv(const ComparisonResult& result,
                         const std::string& path) {
  // Build in memory and replace atomically: an interrupted write never
  // leaves a truncated CSV behind, and I/O failures throw IoError.
  std::ostringstream out;
  out << "class,graph,platform,tasks,baseline,baseline_makespan,"
         "emts_makespan,ratio,emts_seconds,emts_evaluations,"
         "emts_scheduled,emts_cache_hits,emts_rejections,"
         "emts_eval_seconds\n";
  for (const InstanceResult& ir : result.instances) {
    for (const auto& [baseline, makespan] : ir.baseline_makespans) {
      out << ir.cls << ',' << ir.graph << ',' << ir.platform << ','
          << ir.num_graph_tasks << ',' << baseline << ','
          << strfmt("%.6g", makespan) << ',' << strfmt("%.6g", ir.emts_makespan)
          << ',' << strfmt("%.6g", makespan / ir.emts_makespan) << ','
          << strfmt("%.4f", ir.emts_seconds) << ',' << ir.emts_evaluations
          << ',' << ir.emts_scheduled << ',' << ir.emts_cache_hits << ','
          << ir.emts_rejections << ',' << strfmt("%.4f", ir.emts_eval_seconds)
          << '\n';
    }
  }
  write_file_atomic(path, out.str());
}

void write_cells_csv(const ComparisonResult& result, const std::string& path) {
  std::ostringstream out;
  out << "class,platform,baseline,mean_ratio,ci95_lo,ci95_hi,n,wilcoxon_p\n";
  for (const RatioCell& c : result.cells) {
    out << c.cls << ',' << c.platform << ',' << c.baseline << ','
        << strfmt("%.6g", c.ratio.mean) << ',' << strfmt("%.6g", c.ratio.lo)
        << ',' << strfmt("%.6g", c.ratio.hi) << ',' << c.ratio.n << ','
        << strfmt("%.6g", c.p_value) << '\n';
  }
  write_file_atomic(path, out.str());
}

}  // namespace ptgsched
