// Quickstart: schedule one FFT parallel task graph on the Grelon cluster
// with the baseline heuristics and EMTS, and print the resulting
// makespans plus an ASCII Gantt chart of the EMTS schedule.
//
//   ./examples/quickstart [--platform=grelon] [--model=model2]
//                         [--points=16] [--seed=7]

#include <cstdio>

#include "daggen/application_graphs.hpp"
#include "emts/emts.hpp"
#include "heuristics/allocation_heuristic.hpp"
#include "sched/gantt.hpp"
#include "sched/list_scheduler.hpp"
#include "sched/validate.hpp"
#include "support/cli.hpp"

using namespace ptgsched;

int main(int argc, char** argv) {
  CliParser cli("quickstart",
                "Schedule an FFT PTG with MCPA/HCPA and EMTS, then compare.");
  cli.add_option("platform", "Cluster preset: chti | grelon", "grelon");
  cli.add_option("model", "Execution time model: model1 | model2 | downey",
                 "model2");
  cli.add_option("points", "FFT input points (power of two >= 2)", "16");
  cli.add_option("seed", "RNG seed", "7");
  try {
    if (!cli.parse(argc, argv)) return 0;

    // 1. Build a workload: an FFT task graph with random task complexities,
    //    bundled with the platform and the execution-time model into one
    //    problem instance that every scheduler below shares.
    Rng rng(cli.get_u64("seed"));
    const auto graph = std::make_shared<const Ptg>(
        make_fft_ptg(static_cast<int>(cli.get_int("points")), rng));
    const auto platform =
        std::make_shared<const Cluster>(platform_by_name(cli.get("platform")));
    const auto model = make_model(cli.get("model"));
    const auto instance = ProblemInstance::create(graph, model, platform);
    const Ptg& g = *graph;
    const Cluster& cluster = *platform;

    std::printf("PTG '%s': %zu tasks, %zu edges, total %.3g GFLOP\n",
                g.name().c_str(), g.num_tasks(), g.num_edges(),
                g.total_flops() / 1e9);
    std::printf("Platform '%s': %d processors x %.1f GFLOPS, model '%s'\n\n",
                cluster.name().c_str(), cluster.num_processors(),
                cluster.gflops(), model->name().c_str());

    // 2. Baselines: allocation heuristic + list-scheduler mapping.
    ListScheduler mapper(instance);
    for (const char* name : {"one", "cpa", "hcpa", "mcpa"}) {
      const auto heuristic = make_heuristic(name);
      const Allocation alloc = heuristic->allocate(*instance);
      std::printf("%-8s makespan %8.3f s\n", name, mapper.makespan(alloc));
    }

    // 3. EMTS: evolutionary optimization seeded with MCPA/HCPA/delta.
    EmtsConfig cfg = emts10_config();
    cfg.seed = cli.get_u64("seed");
    const Emts emts(cfg);
    const EmtsResult result = emts.schedule(instance);
    std::printf("%-8s makespan %8.3f s  (%zu evaluations, %.2f ms)\n\n",
                "emts10", result.makespan, result.es.evaluations,
                result.total_seconds * 1e3);

    // 4. The schedule is valid by construction; verify and show it.
    validate_schedule(result.schedule, g, result.best_allocation, *model,
                      cluster);
    const ScheduleMetrics metrics = compute_metrics(result.schedule, g);
    std::printf("EMTS schedule: utilization %.1f%%, mean allocation %.1f, "
                "max allocation %d\n\n",
                metrics.utilization * 100.0, metrics.mean_allocation,
                metrics.max_allocation);
    std::printf("%s\n", gantt_ascii(result.schedule).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "quickstart: %s\n", e.what());
    return 1;
  }
}
