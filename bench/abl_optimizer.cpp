// EXP-A4 — Ablation: the (mu + lambda)-ES against other search strategies
// at an identical fitness-evaluation budget (the paper's Section VI:
// "different evolutionary methods could be compared to each other with
// respect to scheduling performance and speed").
//
// All strategies share the same seeds (MCPA/HCPA/Delta), the same fitness
// (list-scheduler makespan) and the same mutation operator; the budget is
// EMTS5's (5 + 5 * 25 = 130 evaluations) resp. EMTS10's (10 + 10 * 100).

#include <cstdio>
#include <map>

#include "core/problem_instance.hpp"
#include "daggen/corpus.hpp"
#include "ea/local_search.hpp"
#include "emts/emts.hpp"
#include "eval/evaluation_engine.hpp"
#include "heuristics/allocation_heuristic.hpp"
#include "sched/list_scheduler.hpp"
#include "support/cli.hpp"
#include "support/stats.hpp"
#include "support/strings.hpp"

using namespace ptgsched;

int main(int argc, char** argv) {
  CliParser cli("abl_optimizer",
                "Ablation EXP-A4: ES vs hill climbing vs simulated "
                "annealing vs random search at equal budgets.");
  cli.add_option("instances", "Instances per class", "12");
  cli.add_option("seed", "Base seed", "42");
  cli.add_option("budget", "Fitness evaluations per strategy", "130");
  try {
    if (!cli.parse(argc, argv)) return 0;
    const auto n = static_cast<std::size_t>(cli.get_int("instances"));
    const std::uint64_t seed = cli.get_u64("seed");
    const auto budget = static_cast<std::size_t>(cli.get_int("budget"));
    const auto model = std::make_shared<const SyntheticModel>();
    const auto cluster = std::make_shared<const Cluster>(grelon());
    const int P = cluster->num_processors();

    std::printf("# EXP-A4: optimizer comparison on grelon, Model 2, "
                "budget = %zu evaluations\n", budget);
    std::puts("# mean makespan normalized to the (5+25)-ES (lower is "
              "better; seeds shared by all strategies)");

    std::vector<std::vector<std::string>> table;
    table.push_back({"class", "es(5+25)", "hillclimb", "annealing",
                     "random", "best-seed"});
    for (const std::string cls : {"strassen", "layered", "irregular"}) {
      const auto graphs = corpus_by_name(cls, 100, n, seed);
      std::map<std::string, RunningStats> norm;
      for (std::size_t i = 0; i < graphs.size(); ++i) {
        const auto instance = ProblemInstance::create(
            std::make_shared<const Ptg>(graphs[i]), model, cluster);
        std::vector<Individual> seeds;
        for (const char* h : {"mcpa", "hcpa", "delta"}) {
          Individual ind;
          ind.genes = make_heuristic(h)->allocate(*instance);
          ind.origin = h;
          seeds.push_back(std::move(ind));
        }
        // All strategies draw fitness from one engine sharing one problem
        // core — the same table-backed hot path EMTS itself evaluates on.
        // The ES drives it as its batch evaluator, the others through
        // fitness_fn(); both are exact (no rejection bound, no memo).
        EvaluationEngine engine(instance);
        const FitnessFn fitness = engine.fitness_fn();
        const MutateFn mutate =
            Emts::make_mutator(MutationParams{}, 0.33, 5, P);

        std::map<std::string, double> makespans;
        double best_seed = std::numeric_limits<double>::infinity();
        for (const auto& s : seeds) {
          best_seed = std::min(best_seed, fitness(s.genes, 0));
        }
        makespans["seed"] = best_seed;

        {
          EsConfig cfg;
          cfg.mu = 5;
          cfg.lambda = 25;
          cfg.generations = std::max<std::size_t>(1, (budget - 5) / 25);
          cfg.seed = derive_seed(seed, i);
          EvolutionStrategy es(cfg, engine, mutate);
          makespans["es"] = es.run(seeds).best.fitness;
        }
        LocalSearchConfig lcfg;
        lcfg.max_evaluations = budget;
        lcfg.seed = derive_seed(seed, i);
        makespans["hc"] =
            hill_climb(seeds, fitness, mutate, lcfg).best.fitness;
        makespans["rs"] =
            random_search(seeds, fitness, mutate, lcfg).best.fitness;
        AnnealingConfig acfg;
        acfg.max_evaluations = budget;
        acfg.seed = derive_seed(seed, i);
        makespans["sa"] =
            simulated_annealing(seeds, fitness, mutate, acfg).best.fitness;

        const double ref = makespans["es"];
        for (const auto& [name, m] : makespans) norm[name].add(m / ref);
      }
      table.push_back({cls, strfmt("%.4f", norm["es"].mean()),
                       strfmt("%.4f", norm["hc"].mean()),
                       strfmt("%.4f", norm["sa"].mean()),
                       strfmt("%.4f", norm["rs"].mean()),
                       strfmt("%.4f", norm["seed"].mean())});
    }
    std::fputs(render_table(table).c_str(), stdout);
    std::puts("# All strategies are seeded, so every column is <= "
              "best-seed; values < 1 would beat the ES.");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "abl_optimizer: %s\n", e.what());
    return 1;
  }
}
