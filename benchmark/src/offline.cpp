// The offline workloads: sequential Emts::schedule calls over a generated
// corpus, the way the paper's experiments and a batch campaign use EMTS.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"
#include "daggen/corpus.hpp"
#include "recompose.hpp"
#include "sched/lower_bounds.hpp"
#include "sched/validate.hpp"
#include "support/stats.hpp"
#include "support/timer.hpp"

namespace ptgbench {

using namespace ptgsched;

namespace {

struct OfflineWorkload {
  const char* name;
  std::size_t mu;
  std::size_t lambda;
  std::size_t generations;
  int tasks;
  bool multithread;  ///< Engine threads = engine_threads(), else inline.
  /// Jobs per nominal second of --seconds (untraced / traced prefix). The
  /// rates make a run last about --seconds on a 4-core Xeon; fixing the
  /// count instead of the time keeps the work identical across builds.
  double jobs_per_second;
  double traced_jobs_per_second;
};

// emts10-paper: the paper's EMTS10 configuration on 100-task PTGs, engine
// inline; the single-thread baseline where evaluation is ~80% of a run.
// emts-wide: lambda = 400 on 500-task PTGs with engine threads, where the
// delta kernels and intra-generation parallelism have the most to split.
constexpr OfflineWorkload kWorkloads[] = {
    {"emts10-paper", 10, 100, 10, 100, false, 50.0, 10.0},
    {"emts-wide", 10, 400, 10, 500, true, 5.5, 1.0},
};

constexpr int kSetupRepeats = 5;

const OfflineWorkload* find_workload(const std::string& name) {
  for (const OfflineWorkload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::size_t job_count(double rate, double seconds) {
  return std::max<std::size_t>(
      2, static_cast<std::size_t>(std::llround(rate * seconds)));
}

EmtsConfig job_config(const OfflineWorkload& w, std::uint64_t seed) {
  EmtsConfig cfg = emts10_config();
  cfg.mu = w.mu;
  cfg.lambda = w.lambda;
  cfg.generations = w.generations;
  cfg.seed = seed;
  cfg.threads = w.multithread ? engine_threads() : 0;
  return cfg;
}

std::uint64_t job_seed(std::uint64_t seed, std::size_t k) {
  return derive_seed(seed, 0xe375, k);
}

/// Job k's graph: irregular for even k, layered for odd k.
std::vector<Ptg> make_graphs(const OfflineWorkload& w, std::uint64_t seed,
                             std::size_t count) {
  std::vector<Ptg> irregular =
      irregular_corpus(w.tasks, (count + 1) / 2, derive_seed(seed, 1));
  std::vector<Ptg> layered =
      layered_corpus(w.tasks, count / 2, derive_seed(seed, 2));
  std::vector<Ptg> graphs;
  graphs.reserve(count);
  for (std::size_t k = 0; k < count; ++k) {
    graphs.push_back(std::move(k % 2 == 0 ? irregular[k / 2] : layered[k / 2]));
  }
  return graphs;
}

/// Model 2 on grelon for job pairs 0, 2, 4, ..., on chti for the others.
class InstanceMaker {
 public:
  InstanceMaker()
      : model_(make_model("model2")),
        grelon_(std::make_shared<const Cluster>(grelon())),
        chti_(std::make_shared<const Cluster>(chti())) {}

  std::shared_ptr<const ProblemInstance> operator()(Ptg graph,
                                                    std::size_t k) const {
    auto instance = ProblemInstance::create(
        std::make_shared<const Ptg>(std::move(graph)), model_,
        (k / 2) % 2 == 0 ? grelon_ : chti_);
    instance->warm();
    return instance;
  }

 private:
  std::shared_ptr<const ExecutionTimeModel> model_;
  std::shared_ptr<const Cluster> grelon_;
  std::shared_ptr<const Cluster> chti_;
};

std::vector<std::shared_ptr<const ProblemInstance>> make_instances(
    const OfflineWorkload& w, std::uint64_t seed, std::size_t count) {
  std::vector<Ptg> graphs = make_graphs(w, seed, count);
  const InstanceMaker make;
  std::vector<std::shared_ptr<const ProblemInstance>> out;
  out.reserve(count);
  for (std::size_t k = 0; k < count; ++k) {
    out.push_back(make(std::move(graphs[k]), k));
  }
  return out;
}

/// The schedule is legal, no shorter than the lower bound, and no longer
/// than the best seed heuristic's (plus selection is elitist).
void check_job(const ProblemInstance& inst, const EmtsResult& r,
               std::size_t k, Report& report) {
  const std::string job = "job " + std::to_string(k) + ": ";
  try {
    validate_schedule(r.schedule, inst.graph(), r.best_allocation,
                      inst.model(), inst.cluster());
  } catch (const ScheduleError& e) {
    report.fail(job + "invalid schedule: " + e.what());
  }
  // Relative slack for summation order only: the bound and the schedule
  // add the same task times along a chain in different orders.
  const double lb =
      makespan_lower_bounds(inst.graph(), inst.model(), inst.cluster())
          .combined();
  report.require(r.makespan >= lb * (1.0 - 1e-12),
                 job + "makespan " + exact(r.makespan) +
                     " below the lower bound " + exact(lb));
  double best_seed = r.makespan;
  for (const SeedInfo& s : r.seeds) best_seed = std::min(best_seed, s.makespan);
  report.require(r.makespan <= best_seed,
                 job + "makespan " + exact(r.makespan) +
                     " worse than the best seed " + exact(best_seed));
  report.require(!r.cancelled, job + "cancelled");
}

void run_untraced(const OfflineWorkload& w, const Options& o,
                  Report& report) {
  const std::size_t n = job_count(w.jobs_per_second, o.seconds);
  std::vector<double> setup_s;
  std::vector<std::shared_ptr<const ProblemInstance>> instances;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    instances.clear();
    const WallTimer timer;
    instances = make_instances(w, o.seed, n);
    setup_s.push_back(timer.seconds());
  }

  std::vector<double> job_ms;
  job_ms.reserve(n);
  double busy_s = 0.0;
  double makespan_sum = 0.0;
  std::uint64_t es_evaluations = 0;
  for (std::size_t k = 0; k < n; ++k) {
    const Emts emts(job_config(w, job_seed(o.seed, k)));
    const WallTimer timer;
    const EmtsResult r = emts.schedule(instances[k]);
    const double s = timer.seconds();
    busy_s += s;
    job_ms.push_back(s * 1e3);
    makespan_sum += r.makespan;
    es_evaluations += r.es.evaluations;
    check_job(*instances[k], r, k, report);
  }
  report.attempted = n;

  report.checks["makespan_sum"] = exact(makespan_sum);
  report.checks["es_evaluations"] = es_evaluations;
  const Json golden = find_golden(o.goldens, w.name, o.seed, n);
  if (golden.is_null()) {
    report.checks["golden"] = "none recorded for this seed and job count";
  } else {
    report.require(golden.at("makespan_sum").as_string() == exact(makespan_sum),
                   "makespan sum " + exact(makespan_sum) + " != golden " +
                       golden.at("makespan_sum").as_string());
    report.require(
        golden.at("es_evaluations").as_int() ==
            static_cast<std::int64_t>(es_evaluations),
        "ES evaluation sum " + std::to_string(es_evaluations) +
            " != golden " +
            std::to_string(golden.at("es_evaluations").as_int()));
    report.checks["golden"] = "matched";
  }

  report.metric("setup_s", percentile(setup_s, 50.0), "s");
  report.metric("job_ms_p50", percentile(job_ms, 50.0), "ms");
  report.metric("job_ms_p90", percentile(job_ms, 90.0), "ms");
  report.metric("job_ms_p99", percentile(job_ms, 99.0), "ms");
  report.metric("jobs_per_s", static_cast<double>(n) / busy_s, "1/s");
  report.metric("evals_per_s", static_cast<double>(es_evaluations) / busy_s,
                "1/s");
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");
  report.info["jobs"] = static_cast<std::uint64_t>(n);
  report.info["engine_threads"] =
      static_cast<std::uint64_t>(job_config(w, 0).threads);
}

void run_traced(const OfflineWorkload& w, const Options& o, Report& report) {
  const std::size_t n = job_count(w.traced_jobs_per_second, o.seconds);
  Tracer tracer;
  std::vector<Ptg> graphs;
  {
    const auto s = tracer.span("daggen.corpus");
    graphs = make_graphs(w, o.seed, n);
  }
  const InstanceMaker make;
  std::vector<std::shared_ptr<const ProblemInstance>> instances;
  for (std::size_t k = 0; k < n; ++k) {
    const auto s = tracer.span("core.instance");
    instances.push_back(make(std::move(graphs[k]), k));
  }

  const std::size_t threads = engine_threads();
  TracedEmts sums;
  Capture capture;
  for (std::size_t k = 0; k < n; ++k) {
    tracer.set_job(static_cast<std::uint32_t>(k));
    const EmtsConfig cfg = job_config(w, job_seed(o.seed, k));
    EmtsResult untraced;
    EmtsResult traced;
    const auto run_untraced = [&] {
      const WallTimer timer;
      untraced = Emts(cfg).schedule(instances[k]);
      sums.untraced_s += timer.seconds();
    };
    const auto run_traced = [&] {
      capture.clear();
      const auto s = tracer.span("emts.job");
      traced = traced_schedule(cfg, instances[k], tracer, &capture);
    };
    // Alternate the order so neither side always runs on warm caches.
    if (k % 2 == 0) {
      run_untraced();
      run_traced();
    } else {
      run_traced();
      run_untraced();
    }
    const std::string diff = same_result(untraced, traced);
    report.require(diff.empty(), "job " + std::to_string(k) +
                                     ": traced run differs from "
                                     "Emts::schedule: " + diff);
    check_job(*instances[k], untraced, k, report);
    std::string mismatch;
    const ReplayTimes times =
        replay(capture, instances[k], cfg, threads, mismatch);
    report.require(mismatch.empty(),
                   "job " + std::to_string(k) + ": " + mismatch);
    sums.add(traced, times);
  }
  report.attempted = n;
  report_layers(tracer, "emts.job", sums, threads, report);
  report.info["jobs"] = static_cast<std::uint64_t>(n);
  tracer.write_chrome_trace(o.out_dir + "/trace-" + w.name + ".json");
}

}  // namespace

bool is_offline_workload(const std::string& name) {
  return find_workload(name) != nullptr;
}

void run_offline(const Options& options, Report& report) {
  const OfflineWorkload& w = *find_workload(options.workload);
  if (options.trace) {
    run_traced(w, options, report);
  } else {
    run_untraced(w, options, report);
  }
}

int check_recomposition(std::size_t instances) {
  int mismatches = 0;
  for (const OfflineWorkload& w : kWorkloads) {
    const auto problems = make_instances(w, 7, instances);
    for (std::size_t k = 0; k < instances; ++k) {
      const EmtsConfig cfg = job_config(w, job_seed(7, k));
      const EmtsResult expected = Emts(cfg).schedule(problems[k]);
      Tracer tracer;
      const EmtsResult traced =
          traced_schedule(cfg, problems[k], tracer, nullptr);
      const std::string diff = same_result(expected, traced);
      if (!diff.empty()) {
        std::fprintf(stderr, "%s instance %zu: %s\n", w.name, k,
                     diff.c_str());
        ++mismatches;
      }
    }
  }
  return mismatches;
}

}  // namespace ptgbench
