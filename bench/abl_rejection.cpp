// EXP-A5 — Ablation: the rejection strategy proposed in the paper's
// conclusion ("design heuristics that reject solutions ... while the
// algorithm is still in the mapping phase. With such a rejection strategy,
// the construction of the whole schedule for inefficient solutions could
// be avoided").
//
// Our implementation rejects an offspring as soon as some task's start
// time plus its bottom level exceeds the worst fitness surviving the
// previous selection — provably without changing the evolution trajectory.
// This bench measures what that buys: wall-clock speedup of the EMTS
// optimization, fraction of evaluations rejected, and (as a check) that
// the resulting makespans are bit-identical.

#include <cstdio>

#include "daggen/corpus.hpp"
#include "emts/emts.hpp"
#include "support/cli.hpp"
#include "support/stats.hpp"
#include "support/strings.hpp"

using namespace ptgsched;

int main(int argc, char** argv) {
  CliParser cli("abl_rejection",
                "Ablation EXP-A5: early rejection in the mapping phase.");
  cli.add_option("instances", "Instances per class", "10");
  cli.add_option("seed", "Base seed", "42");
  try {
    if (!cli.parse(argc, argv)) return 0;
    const auto n = static_cast<std::size_t>(cli.get_int("instances"));
    const std::uint64_t seed = cli.get_u64("seed");
    const auto model = std::make_shared<const SyntheticModel>();

    std::puts("# EXP-A5: rejection strategy, EMTS10, Model 2");
    std::vector<std::vector<std::string>> table;
    table.push_back({"class", "platform", "time plain [ms]",
                     "time reject [ms]", "speedup", "rejected [%]",
                     "identical"});
    for (const Cluster& platform : {chti(), grelon()}) {
      const auto cluster = std::make_shared<const Cluster>(platform);
      for (const std::string cls : {"strassen", "irregular"}) {
        const auto graphs = corpus_by_name(cls, 100, n, seed);
        RunningStats t_plain;
        RunningStats t_reject;
        RunningStats rejected_frac;
        bool identical = true;
        for (std::size_t i = 0; i < graphs.size(); ++i) {
          EmtsConfig cfg = emts10_config();
          cfg.seed = derive_seed(seed, i);
          const auto instance = ProblemInstance::create(
              std::make_shared<const Ptg>(graphs[i]), model, cluster);
          const EmtsResult plain = Emts(cfg).schedule(instance);
          cfg.use_rejection = true;
          const EmtsResult reject = Emts(cfg).schedule(instance);
          t_plain.add(plain.total_seconds);
          t_reject.add(reject.total_seconds);
          rejected_frac.add(
              static_cast<double>(reject.rejected_evaluations) /
              static_cast<double>(reject.es.evaluations));
          identical &= plain.makespan == reject.makespan &&
                       plain.best_allocation == reject.best_allocation;
        }
        table.push_back(
            {cls, platform.name(), strfmt("%.2f", t_plain.mean() * 1e3),
             strfmt("%.2f", t_reject.mean() * 1e3),
             strfmt("%.2fx", t_plain.mean() / t_reject.mean()),
             strfmt("%.1f", rejected_frac.mean() * 100.0),
             identical ? "yes" : "NO (bug!)"});
      }
    }
    std::fputs(render_table(table).c_str(), stdout);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "abl_rejection: %s\n", e.what());
    return 1;
  }
}
