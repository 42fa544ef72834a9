#pragma once
// The Delta-critical seeding heuristic EMTS adds to MCPA/HCPA starting
// solutions (Section III-B).
//
// With every task allocated one processor, compute bottom levels, group
// tasks by precedence level and, within each level, call a task
// Delta-critical when bl(v) >= Delta * (maximum bottom level in the
// level). Every Delta-critical task of a level with c critical tasks
// receives floor(P / c) processors (at least 1); non-critical tasks keep a
// single processor. Delta = 0.9 in the paper's experiments.

#include "heuristics/allocation_heuristic.hpp"

namespace ptgsched {

class DeltaCriticalAllocation : public AllocationHeuristic {
 public:
  explicit DeltaCriticalAllocation(double delta = 0.9);

  [[nodiscard]] Allocation allocate(
      const ProblemInstance& instance) const override;
  [[nodiscard]] std::string name() const override { return "delta"; }

  [[nodiscard]] double delta() const noexcept { return delta_; }

 private:
  double delta_;
};

/// Trivial baseline: every task gets exactly one processor (the fully
/// data-parallel-free schedule).
class OneEachAllocation : public AllocationHeuristic {
 public:
  [[nodiscard]] Allocation allocate(
      const ProblemInstance& instance) const override;
  [[nodiscard]] std::string name() const override { return "one"; }
};

}  // namespace ptgsched
