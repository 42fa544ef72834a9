// EXP-F6 — Figure 6: side-by-side schedules produced by MCPA and EMTS10
// for an irregular PTG with 100 nodes on Grelon under Model 2.
//
// The paper's visual statement: MCPA's allocations stay tiny (poor
// utilization, long tail), while EMTS stretches the big tasks across many
// processors and packs the machine. This bench prints both ASCII Gantt
// charts, writes SVG files, and reports the utilization numbers that back
// the visual impression.

#include <cstdio>
#include <filesystem>

#include "daggen/corpus.hpp"
#include "emts/emts.hpp"
#include "heuristics/allocation_heuristic.hpp"
#include "sched/gantt.hpp"
#include "sched/list_scheduler.hpp"
#include "sched/validate.hpp"
#include "support/cli.hpp"

using namespace ptgsched;

int main(int argc, char** argv) {
  CliParser cli("fig6_gantt",
                "Reproduce Figure 6: MCPA vs EMTS10 schedule Gantt charts.");
  cli.add_option("seed", "Corpus seed", "42");
  cli.add_option("instance", "Which irregular instance to schedule", "0");
  cli.add_option("out", "Directory for SVG output", "fig6_out");
  cli.add_option("width", "ASCII chart width", "110");
  try {
    if (!cli.parse(argc, argv)) return 0;

    const auto index = static_cast<std::size_t>(cli.get_int("instance"));
    const auto graphs = irregular_corpus(100, index + 1, cli.get_u64("seed"));
    const auto instance = ProblemInstance::create(
        std::make_shared<const Ptg>(graphs.back()),
        std::make_shared<const SyntheticModel>(),
        std::make_shared<const Cluster>(grelon()));
    const Ptg& g = instance->graph();
    const Cluster& cluster = instance->cluster();
    const ExecutionTimeModel& model = instance->model();

    // MCPA schedule.
    const Allocation mcpa_alloc =
        make_heuristic("mcpa")->allocate(*instance);
    ListScheduler mapper(instance);
    const Schedule mcpa_sched = mapper.build_schedule(mcpa_alloc);
    validate_schedule(mcpa_sched, g, mcpa_alloc, model, cluster);

    // EMTS10 schedule.
    EmtsConfig cfg = emts10_config();
    cfg.seed = cli.get_u64("seed");
    const EmtsResult emts = Emts(cfg).schedule(instance);
    validate_schedule(emts.schedule, g, emts.best_allocation, model, cluster);

    const ScheduleMetrics m_mcpa = compute_metrics(mcpa_sched, g);
    const ScheduleMetrics m_emts = compute_metrics(emts.schedule, g);

    std::printf("# EXP-F6 (Figure 6): '%s' (%zu tasks) on %s, Model 2\n\n",
                g.name().c_str(), g.num_tasks(), cluster.name().c_str());
    std::printf("%-8s makespan %9.3f s  utilization %5.1f%%  mean alloc "
                "%5.2f  max alloc %3d\n",
                "MCPA", m_mcpa.makespan, m_mcpa.utilization * 100.0,
                m_mcpa.mean_allocation, m_mcpa.max_allocation);
    std::printf("%-8s makespan %9.3f s  utilization %5.1f%%  mean alloc "
                "%5.2f  max alloc %3d\n",
                "EMTS10", m_emts.makespan, m_emts.utilization * 100.0,
                m_emts.mean_allocation, m_emts.max_allocation);
    std::printf("ratio T_MCPA / T_EMTS10 = %.4f\n\n",
                m_mcpa.makespan / m_emts.makespan);

    AsciiGanttOptions opts;
    opts.width = static_cast<int>(cli.get_int("width"));
    std::puts("== MCPA ==");
    std::fputs(gantt_ascii(mcpa_sched, opts).c_str(), stdout);
    std::puts("");
    std::puts("== EMTS10 ==");
    std::fputs(gantt_ascii(emts.schedule, opts).c_str(), stdout);

    const std::string out_dir = cli.get("out");
    if (!out_dir.empty()) {
      std::filesystem::create_directories(out_dir);
      const auto base = std::filesystem::path(out_dir);
      write_gantt_svg(mcpa_sched, g, (base / "fig6_mcpa.svg").string());
      write_gantt_svg(emts.schedule, g, (base / "fig6_emts10.svg").string());
      std::printf("\n# SVG charts written to %s/\n", out_dir.c_str());
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fig6_gantt: %s\n", e.what());
    return 1;
  }
}
