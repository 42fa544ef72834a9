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

namespace {

/// Timed calls per (algorithm, instance); a row averages the per-instance
/// medians.
constexpr int kTimingReps = 5;

/// Median wall seconds of kTimingReps calls of `call`, so one cold call or
/// host hiccup cannot set an instance's time. Every call is deterministic
/// and computes the same result.
template <typename Call>
double median_seconds(const Call& call) {
  std::vector<double> seconds;
  for (int r = 0; r < kTimingReps; ++r) {
    WallTimer timer;
    call();
    seconds.push_back(timer.seconds());
  }
  return percentile(std::move(seconds), 50.0);
}

}  // namespace

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
          double m = 0.0;
          cost[h].add(median_seconds([&] {
            const Allocation alloc = make_heuristic(h)->allocate(*instance);
            m = mapper.makespan(alloc);
          }));
          quality[h].add(m / lb.combined());
        }
        for (const bool big : {false, true}) {
          EmtsConfig cfg = big ? emts10_config() : emts5_config();
          cfg.seed = derive_seed(seed, i);
          double m = 0.0;
          const std::string label = big ? "emts10" : "emts5";
          cost[label].add(median_seconds(
              [&] { m = Emts(cfg).schedule(instance).makespan; }));
          quality[label].add(m / lb.combined());
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
      std::printf("# sched time: mean over instances of the median of %d "
                  "timed calls (allocation + mapping; emts: the whole "
                  "run)\n\n",
                  kTimingReps);
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tab_heuristics: %s\n", e.what());
    return 1;
  }
}
