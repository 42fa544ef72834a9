#pragma once
// Allocation heuristics: the first step of two-step PTG schedulers
// (Section II-B related work, Section III-B starting solutions).
//
// Every heuristic maps a problem instance to an Allocation. Mapping is
// deliberately *not* part of the interface — any allocation can be mapped
// with the shared list scheduler — mirroring the decoupled two-step
// structure the paper builds on.
//
// The interface takes a ProblemInstance, so every heuristic reads
// precomputed topological orders, precedence levels and execution times
// from the shared core instead of re-deriving them per call.

#include <memory>
#include <string>
#include <vector>

#include "core/problem_instance.hpp"
#include "sched/allocation.hpp"

namespace ptgsched {

class AllocationHeuristic {
 public:
  virtual ~AllocationHeuristic() = default;

  /// Compute s(v) for every task. The result is always a valid allocation
  /// (each entry in [1, P]).
  [[nodiscard]] virtual Allocation allocate(
      const ProblemInstance& instance) const = 0;

  [[nodiscard]] virtual std::string name() const = 0;
};

/// Factory: constructs the heuristic registered under `name` (see
/// heuristic_names()); throws std::invalid_argument listing the valid
/// names otherwise.
[[nodiscard]] std::unique_ptr<AllocationHeuristic> make_heuristic(
    const std::string& name);

/// Every name make_heuristic accepts, in registration order.
[[nodiscard]] const std::vector<std::string>& heuristic_names();

}  // namespace ptgsched
