#pragma once
// Scheduling onto multi-cluster platforms (extension; DESIGN.md).
//
// A task is moldable within one cluster: its candidate allocation is a
// per-cluster processor count (sizes[v][k]), and the mapping step decides
// which cluster actually runs it. The list scheduler is the same
// bottom-level-ordered greedy as the single-cluster mapping (Section
// III-A) — both run on the shared MappingKernel, with one lane per cluster —
// extended with the cluster choice: each ready task is placed on the
// cluster that finishes it earliest (ties: lower cluster index).

#include <memory>
#include <span>
#include <vector>

#include "core/problem_instance.hpp"
#include "model/execution_time.hpp"
#include "platform/multi_cluster.hpp"
#include "ptg/graph.hpp"
#include "sched/schedule.hpp"

namespace ptgsched {

/// Candidate allocations: sizes[v][k] = processors task v would use if it
/// ran on cluster k (each in [1, P_k]).
struct McAllocation {
  std::vector<std::vector<int>> sizes;
};

/// Throws GraphError unless sizes has one row per task with one valid
/// entry per cluster.
void validate_mc_allocation(const McAllocation& alloc, const Ptg& g,
                            const MultiClusterPlatform& platform);

/// Mapping entry point: one ProblemInstance per cluster, all
/// sharing the same graph (and typically the same model). Cluster k of the
/// platform is lane k; its execution times come from clusters[k]'s
/// precomputed table, so repeated mappings of the same platform amortize
/// every model call. Priorities: per-task times used to order ready tasks
/// (bottom levels are computed from these); HCPA uses the
/// reference-cluster times.
///
/// Returns a schedule with *global* processor indices (cluster k's
/// processors start at the sum of the preceding clusters' sizes); every
/// task runs entirely inside one cluster.
[[nodiscard]] Schedule map_mc_allocation(
    const McAllocation& alloc,
    std::span<const std::shared_ptr<const ProblemInstance>> clusters,
    const std::vector<double>& priority_times);

/// Validator: placements within a single cluster, durations consistent
/// with that cluster's model times, precedence and capacity respected.
void validate_mc_schedule(const Schedule& sched, const Ptg& g,
                          const McAllocation& alloc,
                          const ExecutionTimeModel& model,
                          const MultiClusterPlatform& platform);

}  // namespace ptgsched
