// EXP-T3 — Multi-cluster HCPA (extension): schedule the paper's workloads
// on the combined chti+grelon platform with the published HCPA pipeline
// (reference-cluster allocation -> per-cluster translation -> earliest-
// finish cluster mapping) and compare against scheduling on either
// cluster alone (CPA allocation + list mapping, i.e. single-cluster HCPA).

#include <cstdio>
#include <memory>
#include <vector>

#include "daggen/corpus.hpp"
#include "heuristics/cpa.hpp"
#include "heuristics/hcpa_multicluster.hpp"
#include "sched/list_scheduler.hpp"
#include "sched/multi_cluster_scheduler.hpp"
#include "support/cli.hpp"
#include "support/stats.hpp"
#include "support/strings.hpp"

using namespace ptgsched;

int main(int argc, char** argv) {
  CliParser cli("tab_multicluster",
                "HCPA on the combined chti+grelon platform vs each cluster "
                "alone.");
  cli.add_option("instances", "Instances per class", "10");
  cli.add_option("seed", "Base seed", "42");
  cli.add_option("model", "Execution time model", "model1");
  try {
    if (!cli.parse(argc, argv)) return 0;
    const auto n = static_cast<std::size_t>(cli.get_int("instances"));
    const std::uint64_t seed = cli.get_u64("seed");
    const auto model = make_model(cli.get("model"));
    // Cluster 0 (chti) and cluster 1 (grelon) double as the single-cluster
    // baselines.
    const MultiClusterPlatform both = chti_grelon();
    const auto reference =
        std::make_shared<const Cluster>(both.reference_cluster());
    std::vector<std::shared_ptr<const Cluster>> clusters;
    for (std::size_t k = 0; k < both.num_clusters(); ++k) {
      clusters.push_back(std::make_shared<const Cluster>(both.cluster(k)));
    }

    std::printf("# EXP-T3: multi-cluster HCPA on chti(20x4.3)+grelon"
                "(120x3.1), model %s\n", model->name().c_str());
    std::puts("# mean makespans [s]; 'speedup' = best single cluster / "
              "combined platform");

    std::vector<std::vector<std::string>> table;
    table.push_back({"class", "chti only", "grelon only", "chti+grelon",
                     "speedup", "mc valid"});
    for (const std::string cls : {"fft", "strassen", "layered",
                                  "irregular"}) {
      const auto graphs = corpus_by_name(cls, 100, n, seed);
      RunningStats m_small;
      RunningStats m_large;
      RunningStats m_both;
      RunningStats speedup;
      bool valid = true;
      for (const auto& g : graphs) {
        const auto graph = std::make_shared<const Ptg>(g);
        std::vector<std::shared_ptr<const ProblemInstance>> instances;
        for (const auto& c : clusters) {
          instances.push_back(ProblemInstance::create(graph, model, c));
        }
        const auto& small = instances[0];
        const auto& large = instances[1];
        const double t_small = ListScheduler(small).makespan(
            CpaAllocation().allocate(*small));
        const double t_large = ListScheduler(large).makespan(
            CpaAllocation().allocate(*large));
        const McHcpaResult r = McHcpa().schedule(
            *ProblemInstance::create(graph, model, reference), instances);
        try {
          validate_mc_schedule(r.schedule, g, r.allocation, *model, both);
        } catch (const std::exception&) {
          valid = false;
        }
        const double t_both = r.schedule.makespan();
        m_small.add(t_small);
        m_large.add(t_large);
        m_both.add(t_both);
        speedup.add(std::min(t_small, t_large) / t_both);
      }
      table.push_back({cls, strfmt("%.3f", m_small.mean()),
                       strfmt("%.3f", m_large.mean()),
                       strfmt("%.3f", m_both.mean()),
                       strfmt("%.3fx", speedup.mean()),
                       valid ? "yes" : "NO (bug!)"});
    }
    std::fputs(render_table(table).c_str(), stdout);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tab_multicluster: %s\n", e.what());
    return 1;
  }
}
