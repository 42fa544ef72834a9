// EXP-C1 — Convergence traces (our addition, backing the paper's
// Section V-B discussion of EMTS5 vs EMTS10: "the scheduling performance
// improves if more individuals are created and tested" and "improving this
// solution would require many more evolutionary generations").
//
// Prints the best makespan after every generation for EMTS-style runs with
// different (mu + lambda) settings on one representative irregular PTG,
// normalized to the best heuristic seed, plus the optimality lower bound.

#include <cstdio>

#include "daggen/corpus.hpp"
#include "emts/emts.hpp"
#include "sched/lower_bounds.hpp"
#include "support/cli.hpp"
#include "support/strings.hpp"

using namespace ptgsched;

int main(int argc, char** argv) {
  CliParser cli("fig_convergence",
                "Convergence of the EMTS optimization per generation.");
  cli.add_option("seed", "Corpus/EA seed", "42");
  cli.add_option("instance", "Irregular corpus instance index", "0");
  cli.add_option("generations", "Generations to run each setting", "20");
  try {
    if (!cli.parse(argc, argv)) return 0;
    const std::uint64_t seed = cli.get_u64("seed");
    const auto index = static_cast<std::size_t>(cli.get_int("instance"));
    const auto gens = static_cast<std::size_t>(cli.get_int("generations"));

    const auto graphs = irregular_corpus(100, index + 1, seed);
    const Ptg& g = graphs.back();
    const Cluster cluster = grelon();
    const auto model = std::make_shared<const SyntheticModel>();
    const MakespanLowerBounds lb = makespan_lower_bounds(g, *model, cluster);
    const auto instance =
        ProblemInstance::create(std::make_shared<const Ptg>(g), model,
                                std::make_shared<const Cluster>(cluster));

    struct Setting {
      const char* label;
      std::size_t mu;
      std::size_t lambda;
    };
    const Setting settings[] = {
        {"(5+25)", 5, 25}, {"(10+100)", 10, 100}, {"(1+10)", 1, 10}};

    std::printf("# EXP-C1: convergence on '%s' (%zu tasks), grelon, "
                "Model 2\n", g.name().c_str(), g.num_tasks());
    std::printf("# lower bound: %.3f s; values below are best makespan "
                "per generation [s]\n", lb.combined());

    std::vector<EsResult> results;
    for (const Setting& s : settings) {
      EmtsConfig cfg;
      cfg.mu = s.mu;
      cfg.lambda = s.lambda;
      cfg.generations = gens;
      cfg.seed = seed;
      results.push_back(Emts(cfg).schedule(instance).es);
    }

    std::vector<std::vector<std::string>> table;
    {
      std::vector<std::string> header{"generation"};
      for (const Setting& s : settings) header.emplace_back(s.label);
      header.emplace_back("evals (10+100)");
      table.push_back(std::move(header));
    }
    for (std::size_t u = 0; u <= gens; ++u) {
      std::vector<std::string> row{std::to_string(u)};
      for (const EsResult& r : results) {
        row.push_back(u < r.history.size()
                          ? strfmt("%.3f", r.history[u].best)
                          : "-");
      }
      row.push_back(u < results[1].history.size()
                        ? std::to_string(results[1].history[u].evaluations)
                        : "-");
      table.push_back(std::move(row));
    }
    std::fputs(render_table(table).c_str(), stdout);

    for (std::size_t i = 0; i < results.size(); ++i) {
      std::printf("# %s final: %.3f s (gap to lower bound %.2fx)\n",
                  settings[i].label, results[i].best.fitness,
                  results[i].best.fitness / lb.combined());
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fig_convergence: %s\n", e.what());
    return 1;
  }
}
