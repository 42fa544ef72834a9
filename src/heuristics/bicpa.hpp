#pragma once
// BiCPA — bi-criteria CPA (Desprez & Suter, CCGrid'10), Section II-B.
//
// CPA balances the critical path against the average area computed over
// ALL P processors, which over-allocates when the graph cannot actually
// keep P processors busy. BiCPA instead computes one allocation for every
// intermediate "virtual cluster size" b = 1..P (the CPA loop stops when
// T_CP <= W / b, allocations clamped to b), maps each candidate allocation
// onto the full cluster with the shared list scheduler, and returns the
// allocation whose mapped schedule is shortest. The original optimizes a
// makespan/resource-usage trade-off; with the paper's pure makespan
// objective the selection reduces to the mapped-makespan minimum.
//
// Cost: O(P) CPA runs plus O(P) mappings — far more than CPA/MCPA, still
// far less than CPR.

#include "heuristics/allocation_heuristic.hpp"
#include "sched/list_scheduler.hpp"

namespace ptgsched {

class BicpaAllocation : public AllocationHeuristic {
 public:
  /// `stride` evaluates only every stride-th virtual cluster size
  /// (1 = the full BiCPA sweep); larger strides trade schedule quality
  /// for scheduling speed.
  explicit BicpaAllocation(int stride = 1, ListSchedulerOptions mapping = {});

  [[nodiscard]] Allocation allocate(
      const ProblemInstance& instance) const override;
  [[nodiscard]] std::string name() const override { return "bicpa"; }

 private:
  int stride_;
  ListSchedulerOptions mapping_;
};

}  // namespace ptgsched
