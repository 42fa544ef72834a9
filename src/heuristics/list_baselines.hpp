#pragma once
// HEFT / PEFT list-scheduling baselines for heterogeneous platforms.
//
//   * HEFT (Topcuoglu, Hariri & Wu, TPDS'02): tasks are prioritized by
//     rank_u — the bottom level under average-speed task weights and mean
//     link costs (ProblemInstance::bottom_levels_avg) — and each task is
//     placed on the processor minimizing its earliest finish time (EFT)
//     given the actual per-processor durations and link costs.
//   * PEFT (Arabnejad & Barbosa, TPDS'14): an Optimistic Cost Table
//     OCT(v, j) — the best-case remaining critical path below v if v runs
//     on j — replaces rank_u; tasks are prioritized by the row mean of
//     OCT, and placement minimizes EFT(v, j) + OCT(v, j), looking one
//     step ahead of HEFT's greedy choice.
//
// Both produce a task -> processor mapping, i.e. a heterogeneous-mode
// Allocation (gene v = 1-based processor index). On a homogeneous
// instance there is no processor axis to choose over, so both degrade to
// the all-ones allocation (every task sequential) — the honest
// single-processor-per-task baseline in the moldable interpretation.
//
// These are the yardsticks the evolutionary search must beat on the
// heterogeneous axis (ROADMAP item 3): the campaign evaluates their
// mapped makespans next to the EMTS result.

#include "heuristics/allocation_heuristic.hpp"

namespace ptgsched {

class HeftAllocation : public AllocationHeuristic {
 public:
  [[nodiscard]] Allocation allocate(
      const ProblemInstance& instance) const override;
  [[nodiscard]] std::string name() const override { return "heft"; }
};

class PeftAllocation : public AllocationHeuristic {
 public:
  [[nodiscard]] Allocation allocate(
      const ProblemInstance& instance) const override;
  [[nodiscard]] std::string name() const override { return "peft"; }
};

}  // namespace ptgsched
