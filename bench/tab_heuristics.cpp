// EXP-T2 — The full baseline zoo (our addition): mapped makespans and
// scheduling costs of every allocation heuristic in the library, plus
// EMTS5/EMTS10, normalized to the makespan lower bound. One table per
// model, covering the related-work algorithms the paper discusses in
// Section II-B (CPA family, CPR, BiCPA) next to the paper's contribution.

#include <cstdio>
#include <map>

#include "daggen/corpus.hpp"
#include "emts/emts.hpp"
#include "heuristics/allocation_heuristic.hpp"
#include "sched/list_scheduler.hpp"
#include "sched/lower_bounds.hpp"
#include "support/cli.hpp"
#include "support/stats.hpp"
#include "support/strings.hpp"
#include "support/timer.hpp"

using namespace ptgsched;

int main(int argc, char** argv) {
  CliParser cli("tab_heuristics",
                "Compare every allocation algorithm on mapped makespan "
                "(normalized to the lower bound) and scheduling cost.");
  cli.add_option("instances", "Irregular instances", "6");
  cli.add_option("tasks", "Tasks per instance", "100");
  cli.add_option("seed", "Base seed", "42");
  cli.add_option("platform", "chti | grelon", "grelon");
  try {
    if (!cli.parse(argc, argv)) return 0;
    const auto n = static_cast<std::size_t>(cli.get_int("instances"));
    const std::uint64_t seed = cli.get_u64("seed");
    const auto cluster =
        std::make_shared<const Cluster>(platform_by_name(cli.get("platform")));
    const auto graphs = irregular_corpus(
        static_cast<int>(cli.get_int("tasks")), n, seed);

    static constexpr const char* kHeuristics[] = {
        "one", "cpa", "hcpa", "mcpa", "mcpa2", "delta", "bicpa", "cpr"};

    for (const char* model_name : {"model1", "model2"}) {
      const auto model = make_model(model_name);
      std::map<std::string, RunningStats> quality;  // makespan / LB
      std::map<std::string, RunningStats> cost;     // scheduling seconds

      for (std::size_t i = 0; i < graphs.size(); ++i) {
        const MakespanLowerBounds lb =
            makespan_lower_bounds(graphs[i], *model, *cluster);
        // Built (and its lazy tables warmed) outside every timed region.
        const auto instance = ProblemInstance::create(
            std::make_shared<const Ptg>(graphs[i]), model, cluster);
        instance->warm();
        ListScheduler mapper(instance);

        for (const char* h : kHeuristics) {
          WallTimer timer;
          const Allocation alloc = make_heuristic(h)->allocate(*instance);
          const double m = mapper.makespan(alloc);
          cost[h].add(timer.seconds());
          quality[h].add(m / lb.combined());
        }
        for (const bool big : {false, true}) {
          EmtsConfig cfg = big ? emts10_config() : emts5_config();
          cfg.seed = derive_seed(seed, i);
          WallTimer timer;
          const EmtsResult r = Emts(cfg).schedule(instance);
          const std::string label = big ? "emts10" : "emts5";
          cost[label].add(timer.seconds());
          quality[label].add(r.makespan / lb.combined());
        }
      }

      std::printf("# EXP-T2: algorithm zoo on %s, %s, irregular n=%lld "
                  "(%zu instances)\n",
                  cluster->name().c_str(), model_name,
                  static_cast<long long>(cli.get_int("tasks")), n);
      std::vector<std::vector<std::string>> table;
      table.push_back({"algorithm", "makespan/LB mean", "sd",
                       "sched time [ms]"});
      const auto add_row = [&](const std::string& name) {
        table.push_back({name, strfmt("%.4f", quality[name].mean()),
                         strfmt("%.4f", quality[name].stddev()),
                         strfmt("%.3f", cost[name].mean() * 1e3)});
      };
      for (const char* h : kHeuristics) add_row(h);
      add_row("emts5");
      add_row("emts10");
      std::fputs(render_table(table).c_str(), stdout);
      std::puts("");
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tab_heuristics: %s\n", e.what());
    return 1;
  }
}
