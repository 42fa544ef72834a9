#pragma once
// CPR — Critical Path Reduction (Radulescu, Nicolescu, van Gemund &
// Jonker, IPDPS'01), one of the one-step algorithms of Section II-B.
//
// Unlike the two-step CPA family, CPR evaluates every candidate allocation
// change against the *actual mapped schedule*: starting from one processor
// per task, it repeatedly tries to grant one extra processor to each
// critical-path task, keeps the single change that shortens the list-
// scheduled makespan the most, and stops when no change helps. This gives
// shorter schedules than CPA at a much higher scheduling cost (the paper:
// one-step algorithms produce "short schedules, but the drawback is the
// amount of time spent for computing the schedules") — which is exactly
// the trade-off our ablation benches quantify.

#include "heuristics/allocation_heuristic.hpp"
#include "sched/list_scheduler.hpp"

namespace ptgsched {

class CprAllocation : public AllocationHeuristic {
 public:
  explicit CprAllocation(ListSchedulerOptions mapping = {})
      : mapping_(mapping) {}

  [[nodiscard]] Allocation allocate(
      const ProblemInstance& instance) const override;
  [[nodiscard]] std::string name() const override { return "cpr"; }

 private:
  ListSchedulerOptions mapping_;
};

}  // namespace ptgsched
