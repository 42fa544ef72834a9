// workflow_scheduler: a command-line PTG scheduler — the "simulator" of
// Section IV as a tool. Reads a PTG description (JSON) and a platform
// (preset name or platform file), runs the chosen scheduling algorithm,
// and writes the schedule as JSON plus an optional SVG Gantt chart.
//
//   ./examples/workflow_scheduler my_workflow.json --platform=grelon
//       --algorithm=emts10 --model=model2 --svg=schedule.svg
//
// Generate an input file with examples/dag_studio.

#include <cstdio>
#include <filesystem>

#include "emts/emts.hpp"
#include "heuristics/allocation_heuristic.hpp"
#include "ptg/io.hpp"
#include "sched/gantt.hpp"
#include "sched/list_scheduler.hpp"
#include "sched/validate.hpp"
#include "support/cli.hpp"

using namespace ptgsched;

int main(int argc, char** argv) {
  CliParser cli(
      "workflow_scheduler",
      "Schedule a PTG from a JSON description onto a homogeneous cluster.");
  cli.add_positional("ptg", "Path to the PTG description (JSON)");
  cli.add_option("platform",
                 "Cluster preset (chti|grelon) or a platform JSON file",
                 "grelon");
  cli.add_option("algorithm",
                 "one | cpa | hcpa | mcpa | mcpa2 | delta | emts5 | emts10",
                 "emts5");
  cli.add_option("model", "model1 | model2 | downey", "model1");
  cli.add_option("seed", "RNG seed for the EMTS variants", "1");
  cli.add_option("out", "Write the schedule JSON here (empty = stdout only)",
                 "");
  cli.add_option("svg", "Write an SVG Gantt chart here (empty = none)", "");
  cli.add_flag("gantt", "Print an ASCII Gantt chart");
  try {
    if (!cli.parse(argc, argv)) return 0;

    const auto graph =
        std::make_shared<const Ptg>(load_ptg(cli.positional("ptg")));
    const std::string platform_arg = cli.get("platform");
    const auto platform = std::make_shared<const Cluster>(
        std::filesystem::exists(platform_arg) ? Cluster::load(platform_arg)
                                              : platform_by_name(platform_arg));
    const auto model = make_model(cli.get("model"));
    const auto instance = ProblemInstance::create(graph, model, platform);
    const Ptg& g = *graph;
    const Cluster& cluster = *platform;
    const std::string algorithm = cli.get("algorithm");

    Allocation alloc;
    Schedule schedule;
    if (algorithm == "emts5" || algorithm == "emts10") {
      EmtsConfig cfg =
          algorithm == "emts5" ? emts5_config() : emts10_config();
      cfg.seed = cli.get_u64("seed");
      const EmtsResult r = Emts(cfg).schedule(instance);
      alloc = r.best_allocation;
      schedule = r.schedule;
      std::printf("seeds:");
      for (const auto& s : r.seeds) {
        std::printf(" %s=%.3fs", s.heuristic.c_str(), s.makespan);
      }
      std::printf("\nevaluations: %zu in %.1f ms\n", r.es.evaluations,
                  r.total_seconds * 1e3);
    } else {
      alloc = make_heuristic(algorithm)->allocate(*instance);
      schedule = ListScheduler(instance).build_schedule(alloc);
    }
    validate_schedule(schedule, g, alloc, *model, cluster);

    const ScheduleMetrics m = compute_metrics(schedule, g);
    std::printf(
        "graph: %s (%zu tasks)\nplatform: %s (%d x %.1f GFLOPS)\n"
        "algorithm: %s  model: %s\nmakespan: %.3f s  utilization: %.1f%%\n",
        g.name().c_str(), g.num_tasks(), cluster.name().c_str(),
        cluster.num_processors(), cluster.gflops(), algorithm.c_str(),
        model->name().c_str(), m.makespan, m.utilization * 100.0);

    if (cli.get_flag("gantt")) {
      std::fputs(gantt_ascii(schedule).c_str(), stdout);
    }
    if (!cli.get("out").empty()) {
      schedule.to_json().write_file(cli.get("out"));
      std::printf("schedule written to %s\n", cli.get("out").c_str());
    }
    if (!cli.get("svg").empty()) {
      write_gantt_svg(schedule, g, cli.get("svg"));
      std::printf("gantt written to %s\n", cli.get("svg").c_str());
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "workflow_scheduler: %s\n", e.what());
    return 1;
  }
}
