#include "heuristics/hcpa_multicluster.hpp"

#include <vector>

#include "heuristics/cpa.hpp"

namespace ptgsched {

McAllocation McHcpa::translate(
    const Allocation& reference_alloc, const ProblemInstance& reference,
    std::span<const std::shared_ptr<const ProblemInstance>> clusters) {
  const Ptg& g = reference.graph();
  validate_allocation(reference_alloc, g, reference.cluster());

  McAllocation out;
  out.sizes.resize(g.num_tasks());
  for (TaskId v = 0; v < g.num_tasks(); ++v) {
    const double ref_time = reference.time(v, reference_alloc[v]);
    out.sizes[v].reserve(clusters.size());
    for (const auto& cluster : clusters) {
      // Smallest processor count at least as fast as the reference
      // allocation; the cluster size if none qualifies (e.g. a slow
      // cluster cannot match a wide reference allocation).
      const std::span<const double> row = cluster->times_of(v);
      int chosen = cluster->num_processors();
      for (int p = 1; p <= cluster->num_processors(); ++p) {
        if (row[static_cast<std::size_t>(p - 1)] <= ref_time) {
          chosen = p;
          break;
        }
      }
      out.sizes[v].push_back(chosen);
    }
  }
  return out;
}

McHcpaResult McHcpa::schedule(
    const ProblemInstance& reference,
    std::span<const std::shared_ptr<const ProblemInstance>> clusters) const {
  const Ptg& g = reference.graph();
  McHcpaResult result;
  result.reference_allocation = CpaAllocation().allocate(reference);
  result.allocation =
      translate(result.reference_allocation, reference, clusters);

  // Priorities: reference-cluster execution times (the bottom levels HCPA
  // computed during its allocation step).
  std::vector<double> priority(g.num_tasks());
  for (TaskId v = 0; v < g.num_tasks(); ++v) {
    priority[v] = reference.time(v, result.reference_allocation[v]);
  }
  result.schedule = map_mc_allocation(result.allocation, clusters, priority);
  return result;
}

}  // namespace ptgsched
