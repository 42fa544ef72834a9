// EXP-M2 — evaluation-engine throughput on EMTS-10-sized generations.
//
// The paper's Section VI: "The execution time of the EA is mainly
// determined by the mapping function as it evaluates the fitness of
// individuals." This bench measures fitness evaluations per second for
// lambda-sized batches of EMTS-10 mutants of an MCPA seed (duplicates
// arise naturally, as in a real run) through the persistent
// EvaluationEngine, at 1, 2, 4, ... threads up to --max-threads:
//
//   engine — memo off: every evaluation is one full MappingKernel pass;
//   +memo  — the same engine with the allocation-memoization cache on.
//
// Every lane's fitness sum must equal the 1-thread engine lane's bit for
// bit; any drift is a correctness bug, not a measurement artifact.
//
// Heterogeneous lane (1 thread): the same batches reinterpreted as
// processor mappings on the structurally heterogeneous uniform-speed twin
// of the platform (every speed 1.0, every link cost 0.0), so its cost
// relative to the homogeneous engine lane isolates the heterogeneous
// kernel machinery (P one-processor lanes, per-processor table, comm
// context). `--max-hetero-overhead X` fails the run when the
// heterogeneous lane costs more than X times the homogeneous one per
// evaluation (the perf_smoke_hetero guard).
//
// `--json PATH` writes the whole table as a machine-readable report
// (consumed by scripts/bench_report).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>

#include "daggen/corpus.hpp"
#include "emts/emts.hpp"
#include "eval/evaluation_engine.hpp"
#include "heuristics/allocation_heuristic.hpp"
#include "support/cli.hpp"
#include "support/json.hpp"
#include "support/strings.hpp"
#include "support/timer.hpp"

using namespace ptgsched;

namespace {

struct Run {
  double seconds = 0.0;
  double fitness_sum = 0.0;  ///< Exact sum over all fitnesses, pool order.
};

Run engine_run(const std::shared_ptr<const ProblemInstance>& instance,
               const std::vector<std::vector<Individual>>& batches,
               std::size_t threads, bool memoize) {
  EvalEngineConfig cfg;
  cfg.threads = threads;
  cfg.memoize = memoize;
  EvaluationEngine engine(instance, {}, cfg);
  Run run;
  WallTimer timer;
  for (const auto& batch : batches) {
    auto pool = batch;
    engine.evaluate_batch(pool, 0);
    for (const auto& ind : pool) run.fitness_sum += ind.fitness;
  }
  run.seconds = timer.seconds();
  return run;
}

/// Best-of-`reps` seconds of one lane; fails unless every repetition
/// reproduces `want_sum` (or sets it, when it is still NaN).
double best_seconds(const std::shared_ptr<const ProblemInstance>& instance,
                    const std::vector<std::vector<Individual>>& batches,
                    std::size_t threads, bool memoize, std::size_t reps,
                    double& want_sum) {
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t r = 0; r < reps; ++r) {
    const Run run = engine_run(instance, batches, threads, memoize);
    if (std::isnan(want_sum)) want_sum = run.fitness_sum;
    if (run.fitness_sum != want_sum) {
      throw std::runtime_error(strfmt(
          "fitness sum mismatch at %zu threads, memo %d (%.17g, want %.17g)",
          threads, memoize ? 1 : 0, run.fitness_sum, want_sum));
    }
    best = std::min(best, run.seconds);
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("eval_throughput",
                "EXP-M2: fitness evaluations/second through the persistent "
                "EvaluationEngine, with and without the memo cache, across "
                "thread counts and on a heterogeneous platform twin.");
  cli.add_option("tasks", "Tasks per PTG", "100");
  cli.add_option("lambda", "Individuals per batch (EMTS-10: 100)", "100");
  cli.add_option("batches", "Batches (generations) per run", "10");
  cli.add_option("reps", "Repetitions; best run is reported", "3");
  cli.add_option("max-threads", "Sweep thread counts 1,2,4,... up to this",
                 "8");
  cli.add_option("seed", "Base seed", "42");
  cli.add_option("json", "Write a machine-readable report to this path", "");
  cli.add_option("max-hetero-overhead",
                 "Fail if the 1-thread heterogeneous lane costs more than "
                 "this many times the homogeneous engine lane per "
                 "evaluation (0 = off)",
                 "0");
  try {
    if (!cli.parse(argc, argv)) return 0;
    const int tasks = static_cast<int>(cli.get_int("tasks"));
    const auto lambda = static_cast<std::size_t>(cli.get_int("lambda"));
    const auto batches_n = static_cast<std::size_t>(cli.get_int("batches"));
    const auto reps = static_cast<std::size_t>(cli.get_int("reps"));
    const auto max_threads =
        static_cast<std::size_t>(cli.get_int("max-threads"));
    const std::uint64_t seed = cli.get_u64("seed");
    const std::string json_path = cli.get("json");
    const double max_hetero_overhead = cli.get_double("max-hetero-overhead");

    const auto graph =
        std::make_shared<const Ptg>(irregular_corpus(tasks, 1, seed).front());
    const auto model = std::make_shared<const SyntheticModel>();
    const Cluster cluster = grelon();
    const int P = cluster.num_processors();
    const auto instance = ProblemInstance::create(
        graph, model, std::make_shared<const Cluster>(cluster));

    // EMTS-10-shaped batches: mutants of the MCPA seed under the paper's
    // mutation operator, generation b of 10.
    const Allocation base = make_heuristic("mcpa")->allocate(*instance);
    const MutateFn mutate = Emts::make_mutator(MutationParams{}, 0.33, 10, P);
    Rng rng(derive_seed(seed, 0xBEEFull));
    std::vector<std::vector<Individual>> batches(batches_n);
    for (std::size_t b = 0; b < batches_n; ++b) {
      batches[b].resize(lambda);
      for (auto& ind : batches[b]) {
        ind.genes = mutate(base, std::min<std::size_t>(b, 9), rng);
      }
    }
    const double total =
        static_cast<double>(lambda) * static_cast<double>(batches_n);

    std::printf("# EXP-M2: %zu batches x lambda=%zu, %d-task irregular PTG "
                "on %s (%d procs), best of %zu reps\n",
                batches_n, lambda, tasks, cluster.name().c_str(), P, reps);
    std::vector<std::vector<std::string>> table;
    table.push_back({"threads", "engine ev/s", "engine+memo ev/s",
                     "vs 1 thread"});
    JsonArray rows;
    double want_sum = std::numeric_limits<double>::quiet_NaN();
    double engine_1t = 0.0;
    for (std::size_t t = 1; t <= max_threads; t *= 2) {
      const double engine =
          best_seconds(instance, batches, t, false, reps, want_sum);
      const double memo =
          best_seconds(instance, batches, t, true, reps, want_sum);
      if (t == 1) engine_1t = engine;
      table.push_back({std::to_string(t), strfmt("%.0f", total / engine),
                       strfmt("%.0f", total / memo),
                       strfmt("%.2fx", engine_1t / engine)});
      JsonObject row;
      row.emplace("threads", Json(static_cast<double>(t)));
      row.emplace("engine_evps", Json(total / engine));
      row.emplace("engine_memo_evps", Json(total / memo));
      row.emplace("engine_speedup_vs_1t", Json(engine_1t / engine));
      rows.push_back(Json(std::move(row)));
    }
    std::fputs(render_table(table).c_str(), stdout);
    std::puts("# vs 1 thread = 1-thread engine seconds / engine seconds; "
              "every lane's fitness sum matched the 1-thread engine lane.");

    const auto hetero_instance = ProblemInstance::create(
        graph, model,
        std::make_shared<const Cluster>(degenerate_hetero_variant(cluster)));
    double hetero_sum = std::numeric_limits<double>::quiet_NaN();
    const double hetero =
        best_seconds(hetero_instance, batches, 1, false, reps, hetero_sum);
    const double hetero_overhead = hetero / engine_1t;
    std::vector<std::vector<std::string>> hetero_table;
    hetero_table.push_back({"lane", "hetero ev/s", "overhead"});
    hetero_table.push_back({"1 thread", strfmt("%.0f", total / hetero),
                            strfmt("%.2fx", hetero_overhead)});
    std::fputs(render_table(hetero_table).c_str(), stdout);
    std::puts("# heterogeneous lane on the uniform-speed structural-hetero "
              "twin; overhead = hetero seconds / homogeneous engine "
              "seconds at 1 thread.");

    if (!json_path.empty()) {
      JsonObject doc;
      doc.emplace("bench", Json("eval_throughput"));
      JsonObject config;
      config.emplace("tasks", Json(static_cast<double>(tasks)));
      config.emplace("lambda", Json(static_cast<double>(lambda)));
      config.emplace("batches", Json(static_cast<double>(batches_n)));
      config.emplace("reps", Json(static_cast<double>(reps)));
      config.emplace("seed", Json(static_cast<double>(seed)));
      config.emplace("cluster", Json(cluster.name()));
      doc.emplace("config", Json(std::move(config)));
      doc.emplace("rows", Json(std::move(rows)));
      JsonObject hetero_row;
      hetero_row.emplace("hetero_engine_evps", Json(total / hetero));
      hetero_row.emplace("hetero_overhead_vs_engine", Json(hetero_overhead));
      doc.emplace("hetero", Json(std::move(hetero_row)));
      Json(std::move(doc)).write_file(json_path);
      std::printf("# wrote %s\n", json_path.c_str());
    }

    if (max_hetero_overhead > 0.0 && hetero_overhead > max_hetero_overhead) {
      std::fprintf(stderr,
                   "eval_throughput: heterogeneous lane costs %.2fx the "
                   "homogeneous engine lane per evaluation, above the "
                   "allowed %.2fx\n",
                   hetero_overhead, max_hetero_overhead);
      return 1;
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "eval_throughput: %s\n", e.what());
    return 1;
  }
}
