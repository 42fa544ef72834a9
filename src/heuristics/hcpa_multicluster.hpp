#pragma once
// HCPA on multi-cluster platforms (N'Takpe & Suter, ICPADS'06; extension,
// see DESIGN.md).
//
// The published pipeline:
//   1. Build a homogeneous *reference cluster* abstracting the whole
//      platform (here: as many processors as the platform, at the mean
//      per-processor speed).
//   2. Run the CPA allocation procedure on the reference cluster.
//   3. Translate each task's reference allocation to every real cluster:
//      the smallest processor count whose predicted run time on that
//      cluster does not exceed the reference run time (clamped to the
//      cluster size).
//   4. Map with a bottom-level list scheduler that places each ready task
//      on the cluster finishing it earliest.
//
// The pipeline reads one ProblemInstance per real cluster plus one for
// the reference cluster, all over one shared graph, so the execution-time
// tables are computed once and shared by the allocation, translation and
// mapping steps.
//
// On a platform with a single homogeneous cluster the reference cluster
// equals the real one, translations are the identity, and the result
// coincides with single-cluster HCPA/CPA + list mapping.

#include <memory>
#include <span>

#include "heuristics/allocation_heuristic.hpp"
#include "platform/multi_cluster.hpp"
#include "sched/multi_cluster_scheduler.hpp"

namespace ptgsched {

struct McHcpaResult {
  Allocation reference_allocation;  ///< CPA result on the reference cluster.
  McAllocation allocation;          ///< Per-cluster translated sizes.
  Schedule schedule;                ///< Mapped schedule (global proc ids).
};

class McHcpa {
 public:
  /// Translate a reference allocation to per-cluster candidate sizes,
  /// reading all times from the instances' precomputed tables.
  /// `reference` and every entry of `clusters` must share one graph.
  [[nodiscard]] static McAllocation translate(
      const Allocation& reference_alloc, const ProblemInstance& reference,
      std::span<const std::shared_ptr<const ProblemInstance>> clusters);

  /// Full pipeline: allocate on the reference cluster, translate, map.
  /// `reference` is the problem on the platform's reference_cluster();
  /// `clusters` holds one instance per real cluster (cluster k = lane k),
  /// all sharing the reference's graph.
  [[nodiscard]] McHcpaResult schedule(
      const ProblemInstance& reference,
      std::span<const std::shared_ptr<const ProblemInstance>> clusters) const;
};

}  // namespace ptgsched
