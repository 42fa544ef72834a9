#include "exp/campaign.hpp"

#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>

#include "daggen/corpus.hpp"
#include "exp/robustness.hpp"
#include "sched/lower_bounds.hpp"
#include "support/atomic_io.hpp"
#include "support/error_context.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"

namespace ptgsched {

namespace {

Json cells_to_json(const std::vector<RatioCell>& cells) {
  Json arr = Json::array();
  for (const RatioCell& c : cells) {
    Json cell = Json::object();
    cell.set("class", c.cls);
    cell.set("platform", c.platform);
    cell.set("baseline", c.baseline);
    cell.set("mean_ratio", c.ratio.mean);
    cell.set("ci95_lo", c.ratio.lo);
    cell.set("ci95_hi", c.ratio.hi);
    cell.set("n", static_cast<std::int64_t>(c.ratio.n));
    arr.push_back(std::move(cell));
  }
  return arr;
}

Json runtime_to_json(const ComparisonResult& result) {
  // Aggregate EMTS wall times and evaluation-engine telemetry per
  // (class, platform) from the instances.
  struct Group {
    RunningStats seconds;
    RunningStats eval_seconds;
    std::size_t evaluations = 0;
    std::size_t scheduled = 0;
    std::size_t cache_hits = 0;
    std::size_t rejections = 0;
  };
  Json arr = Json::array();
  std::map<std::pair<std::string, std::string>, Group> groups;
  for (const InstanceResult& ir : result.instances) {
    Group& g = groups[{ir.cls, ir.platform}];
    g.seconds.add(ir.emts_seconds);
    g.eval_seconds.add(ir.emts_eval_seconds);
    g.evaluations += ir.emts_evaluations;
    g.scheduled += ir.emts_scheduled;
    g.cache_hits += ir.emts_cache_hits;
    g.rejections += ir.emts_rejections;
  }
  for (const auto& [key, g] : groups) {
    Json row = Json::object();
    row.set("class", key.first);
    row.set("platform", key.second);
    row.set("mean_seconds", g.seconds.mean());
    row.set("sd_seconds", g.seconds.stddev());
    row.set("mean_eval_seconds", g.eval_seconds.mean());
    row.set("evaluations", static_cast<std::int64_t>(g.evaluations));
    row.set("scheduled", static_cast<std::int64_t>(g.scheduled));
    row.set("cache_hits", static_cast<std::int64_t>(g.cache_hits));
    row.set("rejections", static_cast<std::int64_t>(g.rejections));
    row.set("n", static_cast<std::int64_t>(g.seconds.count()));
    arr.push_back(std::move(row));
  }
  return arr;
}

ComparisonConfig base_config(const CampaignConfig& config) {
  ComparisonConfig cfg;
  cfg.classes = {"fft", "strassen", "layered", "irregular"};
  cfg.platforms = {"chti", "grelon"};
  cfg.baselines = config.baselines;
  cfg.num_tasks = config.num_tasks;
  cfg.instances = config.instances;
  cfg.seed = config.seed;
  cfg.emts.threads = config.threads;
  return cfg;
}

// --- Checkpoint journal ------------------------------------------------
//
// `campaign_checkpoint.json` is a JSON-lines journal inside output_dir:
// the first line is a config fingerprint, then one line per completed
// unit, appended and fsynced immediately after the unit finishes. On
// --resume, journaled units are replayed verbatim (doubles round-trip via
// %.17g), so the resumed report's aggregates are bit-identical to an
// uninterrupted run. A torn final line (crash mid-append) is tolerated;
// that unit simply re-runs.

std::string unit_key(const std::string& phase, const std::string& cls,
                     const std::string& platform, std::size_t index) {
  return phase + '|' + cls + '|' + platform + '|' + std::to_string(index);
}

Json campaign_fingerprint(const CampaignConfig& config) {
  Json fp = Json::object();
  fp.set("version", 1);
  fp.set("seed", static_cast<std::int64_t>(config.seed));
  fp.set("instances", static_cast<std::int64_t>(config.instances));
  fp.set("num_tasks", config.num_tasks);
  fp.set("include_emts10", config.include_emts10);
  // Baselines extend the fingerprint only when they differ from the
  // historical default, so existing journals keep resuming unchanged.
  if (config.baselines != std::vector<std::string>{"mcpa", "hcpa"}) {
    Json bs = Json::array();
    for (const std::string& b : config.baselines) bs.push_back(Json(b));
    fp.set("baselines", std::move(bs));
  }
  // The robustness phase extends the fingerprint only when enabled, so
  // journals of plain campaigns keep resuming unchanged; a --faults
  // journal never resumes into a plain campaign (or vice versa), and any
  // fault-model/policy change invalidates it.
  if (config.faults) {
    Json fj = Json::object();
    fj.set("fault_model", config.fault_model.to_json());
    Json policies = Json::array();
    for (const std::string& p : config.reschedule_policies) {
      policies.push_back(Json(p));
    }
    fj.set("policies", std::move(policies));
    fj.set("reschedule_latency_seconds", config.reschedule_latency_seconds);
    fp.set("faults", std::move(fj));
  }
  return fp;
}

std::map<std::string, Json> load_checkpoint(const std::string& path,
                                            const Json& expected) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw IoError(path, "campaign: cannot read checkpoint journal");
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);

  std::map<std::string, Json> units;
  bool saw_header = false;
  for (std::size_t n = 0; n < lines.size(); ++n) {
    if (lines[n].empty()) continue;
    Json doc;
    try {
      doc = Json::parse(lines[n]);
    } catch (const JsonError& e) {
      // Only the final line may be torn (the process died mid-append);
      // anything earlier is corruption we must not silently skip.
      if (n + 1 == lines.size()) break;
      throw LoadError(path, "",
                      "campaign checkpoint line " + std::to_string(n + 1) +
                          ": " + e.what());
    }
    if (!saw_header) {
      if (!doc.contains("campaign")) {
        throw LoadError(path, "campaign",
                        "checkpoint journal is missing its header line");
      }
      if (!(doc.at("campaign") == expected)) {
        throw LoadError(path, "campaign",
                        "checkpoint was written by a different campaign "
                        "configuration (seed/instances/tasks mismatch) — "
                        "refusing to resume");
      }
      saw_header = true;
      continue;
    }
    if (!doc.contains("unit")) continue;  // failure lines: re-run on resume
    const Json& u = doc.at("unit");
    const std::string phase =
        json_require(u, "phase", "checkpoint unit").as_string();
    if (u.contains("result")) {
      const Json& res = u.at("result");
      const std::string key = unit_key(
          phase, json_require(res, "class", "checkpoint unit").as_string(),
          json_require(res, "platform", "checkpoint unit").as_string(),
          static_cast<std::size_t>(
              json_require(res, "index", "checkpoint unit").as_int()));
      units[key] = res;
    } else {
      const std::string key = unit_key(
          phase, json_require(u, "class", "checkpoint unit").as_string(),
          json_require(u, "platform", "checkpoint unit").as_string(),
          static_cast<std::size_t>(
              json_require(u, "index", "checkpoint unit").as_int()));
      units[key] = u;
    }
  }
  if (!saw_header) {
    throw LoadError(path, "campaign",
                    "checkpoint journal is missing its header line");
  }
  return units;
}

/// Durably append one `{"<kind>": entry}` line: the "campaign" header, a
/// "unit" or a "failure". A campaign without an output dir keeps no
/// journal.
void journal_append(AppendJournal* journal, const char* kind, Json entry) {
  if (journal == nullptr) return;
  journal->append_line(Json(JsonObject{{kind, std::move(entry)}}).dump(0));
}

/// EMTS/trace seed of one gap or robustness unit attempt: attempt 0 is the
/// historical derivation, retries salt the stream.
std::uint64_t attempt_seed(std::uint64_t base, std::uint64_t salt,
                           std::size_t index, int attempt) {
  return derive_seed(
      base,
      attempt == 0 ? salt
                   : salt ^ splitmix64(static_cast<std::uint64_t>(attempt)),
      index);
}

}  // namespace

Json run_campaign(const CampaignConfig& config,
                  const CampaignProgress& progress) {
  const bool has_dir = !config.output_dir.empty();

  // Create (and error-check) the output directory before any phase runs,
  // so a config that only writes in a later phase cannot fail after hours
  // of computation.
  if (has_dir) {
    std::error_code ec;
    std::filesystem::create_directories(config.output_dir, ec);
    if (ec) {
      throw IoError(config.output_dir,
                    "campaign: cannot create output directory (" +
                        ec.message() + ")");
    }
  }

  // Checkpoint journal: load completed units on resume, else start fresh.
  std::map<std::string, Json> done_units;
  std::unique_ptr<AppendJournal> journal;
  if (has_dir) {
    const std::string ckpt_path =
        (std::filesystem::path(config.output_dir) / kCampaignCheckpointFile)
            .string();
    const Json fingerprint = campaign_fingerprint(config);
    if (config.resume && std::filesystem::exists(ckpt_path)) {
      done_units = load_checkpoint(ckpt_path, fingerprint);
      journal = std::make_unique<AppendJournal>(ckpt_path);
    } else {
      journal = std::make_unique<AppendJournal>(ckpt_path, /*truncate=*/true);
      journal_append(journal.get(), "campaign", fingerprint);
    }
  }

  Json report = Json::object();
  Json meta = Json::object();
  meta.set("seed", static_cast<std::int64_t>(config.seed));
  meta.set("instances_per_class",
           static_cast<std::int64_t>(config.instances));
  meta.set("num_tasks", config.num_tasks);
  meta.set("max_retries", config.max_retries);
  meta.set("unit_deadline_seconds", config.unit_deadline_seconds);
  report.set("meta", std::move(meta));

  Json failures = Json::array();
  bool cancelled = false;
  const auto cancel_requested = [&]() noexcept {
    return config.cancel != nullptr && config.cancel->cancelled();
  };

  const auto wrap_progress = [&](const std::string& phase) {
    return [&, phase](std::size_t done, std::size_t total) {
      if (progress) progress(phase, done, total);
    };
  };

  // Unit-isolation hooks shared by every phase; `phase` keys the
  // checkpoint journal entries and failure records.
  const auto make_hooks = [&](const std::string& phase) {
    ComparisonHooks hooks;
    hooks.cancel = config.cancel;
    hooks.max_retries = config.max_retries;
    hooks.unit_deadline_seconds = config.unit_deadline_seconds;
    hooks.retry_backoff_seconds = config.retry_backoff_seconds;
    hooks.lookup = [&done_units, phase](const std::string& cls,
                                        const std::string& platform,
                                        std::size_t index)
        -> std::optional<InstanceResult> {
      const auto it = done_units.find(unit_key(phase, cls, platform, index));
      if (it == done_units.end()) return std::nullopt;
      return instance_result_from_json(it->second);
    };
    hooks.on_unit = [&journal, phase](const InstanceResult& ir) {
      journal_append(journal.get(), "unit",
                     JsonObject{{"phase", phase},
                                {"result", instance_result_to_json(ir)}});
    };
    hooks.on_failure = [&failures, &journal, phase](const UnitFailure& f) {
      Json fj = unit_failure_to_json(f);
      fj.set("phase", phase);
      journal_append(journal.get(), "failure", fj);
      failures.push_back(std::move(fj));
    };
    return hooks;
  };

  // Phases 1-2: Figure 4 (Model 1, EMTS5), Figure 5 (Model 2, EMTS5 and
  // optionally EMTS10) and the Section V-B runtimes. Each row's instances
  // go to `<report_key>_instances.csv`.
  struct ComparisonPhase {
    const char* progress_label;
    const char* journal_phase;
    const char* model;
    bool emts10;  ///< EMTS10 instead of EMTS5; runs only with include_emts10.
    const char* report_key;
    const char* runtime_key;  ///< nullptr: no runtime section.
  };
  static constexpr ComparisonPhase kComparisonPhases[] = {
      {"fig4", "fig4", "model1", false, "fig4_model1_emts5", nullptr},
      {"fig5/emts5", "fig5_emts5", "model2", false, "fig5_model2_emts5",
       "runtime_emts5_model2"},
      {"fig5/emts10", "fig5_emts10", "model2", true, "fig5_model2_emts10",
       "runtime_emts10_model2"},
  };
  for (const ComparisonPhase& phase : kComparisonPhases) {
    if (phase.emts10 && !config.include_emts10) continue;
    ComparisonConfig cfg = base_config(config);
    cfg.model = phase.model;
    cfg.emts = phase.emts10 ? emts10_config() : emts5_config();
    cfg.emts.threads = config.threads;
    cfg.emts_label = phase.emts10 ? "emts10" : "emts5";
    const ComparisonResult r =
        run_comparison(cfg, wrap_progress(phase.progress_label),
                       make_hooks(phase.journal_phase));
    cancelled = cancelled || r.cancelled;
    report.set(phase.report_key, cells_to_json(r.cells));
    if (phase.runtime_key != nullptr) {
      report.set(phase.runtime_key, runtime_to_json(r));
    }
    if (has_dir) {
      write_instances_csv(r, (std::filesystem::path(config.output_dir) /
                              (std::string(phase.report_key) +
                               "_instances.csv")).string());
    }
    if (cancelled || cancel_requested()) break;
  }

  // Phase 3: optimality gaps vs the makespan lower bounds (Model 2,
  // irregular on Grelon — the hardest configuration). Unit-ized like the
  // comparison phases: per-instance checkpointing, retry, cancellation.
  if (!cancelled && !cancel_requested()) {
    const auto model = make_model("model2");
    const auto cluster = std::make_shared<const Cluster>(grelon());
    const std::size_t count = config.instances > 0 ? config.instances : 24;
    const auto graphs =
        irregular_corpus(config.num_tasks, count, config.seed);
    const ComparisonHooks hooks = make_hooks("gap");
    RunningStats gaps;
    for (std::size_t i = 0; i < graphs.size(); ++i) {
      if (cancel_requested()) {
        cancelled = true;
        break;
      }
      const std::string key = unit_key("gap", "irregular", "grelon", i);
      if (const auto it = done_units.find(key); it != done_units.end()) {
        gaps.add(json_require(it->second, "gap", "checkpoint unit")
                     .as_double());
        if (progress) progress("gap", i + 1, graphs.size());
        continue;
      }

      UnitFailure failure{.cls = "irregular", .platform = "grelon", .index = i};
      double gap = 0.0;
      const bool completed = run_unit_attempts(
          hooks, attempt_seed(config.seed, 0xCA4Bull, i, 0), failure,
          [&](int attempt) {
            EmtsConfig ecfg = emts5_config();
            ecfg.seed = attempt_seed(config.seed, 0xCA4Bull, i, attempt);
            ecfg.threads = config.threads;
            ecfg.cancel = config.cancel;
            if (config.unit_deadline_seconds > 0.0) {
              ecfg.time_budget_seconds = config.unit_deadline_seconds;
            }
            // One shared problem core per gap unit: EMTS and the lower
            // bounds below read the same precomputed tables.
            const auto instance = ProblemInstance::create(
                std::make_shared<const Ptg>(graphs[i]), model, cluster);
            const EmtsResult r = Emts(ecfg).schedule(instance);
            if (r.cancelled) {
              throw CancelledError(
                  "gap unit cancelled mid-run (#" + std::to_string(i) + ")",
                  config.cancel != nullptr ? config.cancel->reason()
                                           : CancelReason::kNone);
            }
            const MakespanLowerBounds lb =
                makespan_lower_bounds(graphs[i], *model, *cluster);
            gap = r.makespan / lb.combined();
          });
      if (completed) {
        journal_append(journal.get(), "unit",
                       JsonObject{{"phase", "gap"},
                                  {"class", "irregular"},
                                  {"platform", "grelon"},
                                  {"index", static_cast<std::int64_t>(i)},
                                  {"gap", gap}});
        gaps.add(gap);
      } else if (failure.kind == UnitErrorKind::kCancelled) {
        cancelled = true;
        break;
      }
      if (progress) progress("gap", i + 1, graphs.size());
    }
    Json gap = Json::object();
    gap.set("mean_makespan_over_lower_bound", gaps.mean());
    gap.set("max", gaps.max());
    gap.set("min", gaps.min());
    gap.set("n", static_cast<std::int64_t>(gaps.count()));
    report.set("optimality_gap_emts5_model2_irregular_grelon",
               std::move(gap));
  }

  // Phase 4: robustness under fault injection (--faults). Model 2 on the
  // Chti cluster; every unit replays one heuristic schedule against one
  // deterministic per-unit fault trace, once per reschedule policy, so the
  // policies' degraded makespans are directly comparable.
  if (config.faults && !cancelled && !cancel_requested()) {
    const auto model = make_model("model2");
    const auto cluster = std::make_shared<const Cluster>(chti());
    RobustnessOptions opts;
    opts.faults = config.fault_model;
    opts.policies = config.reschedule_policies;
    opts.reschedule_latency_seconds = config.reschedule_latency_seconds;
    opts.threads = config.threads;
    opts.cancel = config.cancel;

    const std::vector<std::string> classes = {"fft", "strassen", "layered",
                                              "irregular"};
    std::vector<std::pair<std::string, std::vector<Ptg>>> corpora;
    std::size_t total = 0;
    for (const std::string& cls : classes) {
      const std::size_t count =
          config.instances > 0 ? config.instances : paper_corpus_size(cls);
      corpora.emplace_back(
          cls, corpus_by_name(cls, config.num_tasks, count, config.seed));
      total += corpora.back().second.size();
    }

    const ComparisonHooks hooks = make_hooks("robust");
    std::vector<RobustnessUnitResult> units;
    std::size_t done = 0;
    for (const auto& [cls, graphs] : corpora) {
      if (cancelled) break;
      const std::uint64_t cls_salt =
          splitmix64(std::hash<std::string>{}(cls)) ^ 0xF417ull;
      for (std::size_t i = 0; i < graphs.size(); ++i) {
        if (cancel_requested()) {
          cancelled = true;
          break;
        }
        const std::string key = unit_key("robust", cls, "chti", i);
        if (const auto it = done_units.find(key); it != done_units.end()) {
          units.push_back(robustness_unit_from_json(it->second));
          ++done;
          if (progress) progress("robust", done, total);
          continue;
        }

        UnitFailure failure{.cls = cls, .platform = "chti", .index = i};
        std::optional<RobustnessUnitResult> u;
        const bool completed = run_unit_attempts(
            hooks, attempt_seed(config.seed, cls_salt, i, 0), failure,
            [&](int attempt) {
              const auto instance = ProblemInstance::create(
                  std::make_shared<const Ptg>(graphs[i]), model, cluster);
              u = run_robustness_unit(
                  instance, opts, cls, "chti", i,
                  attempt_seed(config.seed, cls_salt, i, attempt));
            });
        if (completed) {
          journal_append(journal.get(), "unit",
                         JsonObject{{"phase", "robust"},
                                    {"result", robustness_unit_to_json(*u)}});
          units.push_back(std::move(*u));
        } else if (failure.kind == UnitErrorKind::kCancelled) {
          cancelled = true;
          break;
        }
        ++done;
        if (progress) progress("robust", done, total);
      }
    }

    Json rob = Json::object();
    rob.set("fault_model", config.fault_model.to_json());
    rob.set("reschedule_latency_seconds", config.reschedule_latency_seconds);
    rob.set("units", static_cast<std::int64_t>(units.size()));
    rob.set("aggregates", robustness_aggregate_json(units));
    report.set("robustness", std::move(rob));
    if (has_dir) {
      write_robustness_csv(units,
                           (std::filesystem::path(config.output_dir) /
                            "robustness_instances.csv").string());
    }
  }

  report.set("failures", std::move(failures));
  report.set("cancelled", cancelled);

  if (has_dir) {
    report.write_file((std::filesystem::path(config.output_dir) /
                       "campaign_report.json").string());
  }
  return report;
}

}  // namespace ptgsched
