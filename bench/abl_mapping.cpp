// EXP-A3 — Ablation: processor-selection policy of the mapping step.
//
// The paper's list scheduler maps each ready task to "the first processor
// set that contains s(v) available processors" (earliest-available). Our
// BestFit variant instead keeps early-free processors open for subsequent
// ready tasks. This bench compares the two policies both as a pure mapping
// (on MCPA allocations) and inside the EMTS fitness loop.

#include <cstdio>

#include "daggen/corpus.hpp"
#include "emts/emts.hpp"
#include "heuristics/allocation_heuristic.hpp"
#include "sched/list_scheduler.hpp"
#include "support/cli.hpp"
#include "support/stats.hpp"
#include "support/strings.hpp"

using namespace ptgsched;

int main(int argc, char** argv) {
  CliParser cli("abl_mapping",
                "Ablation EXP-A3: earliest-available vs best-fit processor "
                "selection.");
  cli.add_option("instances", "Instances per class", "16");
  cli.add_option("seed", "Base seed", "42");
  try {
    if (!cli.parse(argc, argv)) return 0;
    const auto n = static_cast<std::size_t>(cli.get_int("instances"));
    const std::uint64_t seed = cli.get_u64("seed");
    const auto model = std::make_shared<const SyntheticModel>();
    const auto cluster = std::make_shared<const Cluster>(grelon());

    std::puts("# EXP-A3: mapping-policy ablation on grelon, Model 2");
    std::puts("# ratios are T_earliest / T_bestfit (>1 means best-fit wins)");

    std::vector<std::vector<std::string>> table;
    table.push_back(
        {"class", "mcpa mapping ratio", "emts5 end-to-end ratio"});
    for (const std::string cls : {"strassen", "layered", "irregular"}) {
      const auto graphs = corpus_by_name(cls, 100, n, seed);
      RunningStats map_ratio;
      RunningStats emts_ratio;
      for (std::size_t i = 0; i < graphs.size(); ++i) {
        const auto instance = ProblemInstance::create(
            std::make_shared<const Ptg>(graphs[i]), model, cluster);
        const Allocation alloc = make_heuristic("mcpa")->allocate(*instance);
        ListScheduler earliest(instance,
                               {ProcessorSelection::EarliestAvailable});
        ListScheduler bestfit(instance, {ProcessorSelection::BestFit});
        map_ratio.add(earliest.makespan(alloc) / bestfit.makespan(alloc));

        EmtsConfig cfg = emts5_config();
        cfg.seed = derive_seed(seed, i);
        const double m_e = Emts(cfg).schedule(instance).makespan;
        cfg.mapping.selection = ProcessorSelection::BestFit;
        const double m_b = Emts(cfg).schedule(instance).makespan;
        emts_ratio.add(m_e / m_b);
      }
      table.push_back({cls,
                       strfmt("%.4f (sd %.4f)", map_ratio.mean(),
                              map_ratio.stddev()),
                       strfmt("%.4f (sd %.4f)", emts_ratio.mean(),
                              emts_ratio.stddev())});
    }
    std::fputs(render_table(table).c_str(), stdout);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "abl_mapping: %s\n", e.what());
    return 1;
  }
}
