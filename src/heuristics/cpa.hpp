#pragma once
// The CPA family of allocation procedures.
//
//   * CPA  (Radulescu & van Gemund, ICPP'01): start from s(v) = 1 and,
//     while the critical path T_CP exceeds the average area
//     T_A = (1/P) sum_v s(v) T(v, s(v)), grant one extra processor to the
//     critical-path task whose T(v,s)/s ratio improves the most.
//   * HCPA (N'Takpe & Suter, ICPADS'06): CPA generalized to multi-cluster
//     platforms via a homogeneous reference cluster. On a single
//     homogeneous cluster the reference cluster is the cluster itself and
//     the procedure reduces to CPA (see DESIGN.md); it over-allocates on
//     wide graphs because nothing bounds per-level parallelism.
//   * MCPA (Bansal, Kumar & Singh, ParCo'06): CPA with the allocation size
//     bounded per precedence level -- the processors granted to tasks of
//     one level never exceed P, preserving task parallelism within levels.
//   * MCPA2 (extension, after Hunold CCGrid'10): MCPA plus a post pass that
//     spends remaining per-level capacity on each level's longest task
//     while that shortens the level (approximation; see DESIGN.md).
//
// All variants consult only the instance's execution-time table and
// therefore run under non-monotonic models too; the shared gain loop stops
// when no critical-path task has a strictly positive gain, which is how the
// paper's observation "allocations will grow up to a size of 4-8 processors
// before the allocation procedure stops" (Section V-B) emerges under
// Model 2.

#include "heuristics/allocation_heuristic.hpp"

namespace ptgsched {

class CpaAllocation : public AllocationHeuristic {
 public:
  [[nodiscard]] Allocation allocate(
      const ProblemInstance& instance) const override;
  [[nodiscard]] std::string name() const override { return "cpa"; }
};

class HcpaAllocation : public AllocationHeuristic {
 public:
  [[nodiscard]] Allocation allocate(
      const ProblemInstance& instance) const override;
  [[nodiscard]] std::string name() const override { return "hcpa"; }
};

class McpaAllocation : public AllocationHeuristic {
 public:
  [[nodiscard]] Allocation allocate(
      const ProblemInstance& instance) const override;
  [[nodiscard]] std::string name() const override { return "mcpa"; }
};

class Mcpa2Allocation : public AllocationHeuristic {
 public:
  [[nodiscard]] Allocation allocate(
      const ProblemInstance& instance) const override;
  [[nodiscard]] std::string name() const override { return "mcpa2"; }
};

}  // namespace ptgsched
