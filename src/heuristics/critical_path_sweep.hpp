#pragma once
// The per-grant critical-path step of the CPA-family allocation loops
// (CPA, HCPA, MCPA and MCPA2 in cpa.cpp; BiCPA's virtual-size loop).
//
// Each grant changes one task's execution time; the loop then needs the
// critical-path length t_cp and one critical path under the new times.
// sweep() recomputes every bottom level in one reverse-topological pass
// over the instance's CSR successor arrays, reading a plain times array,
// and walk() follows a critical path over those same levels, so a grant
// costs one O(V + E) sweep and one walk.
//
// The allocations depend on matching bottom_levels() and critical_path()
// bit for bit: sweep() applies the same max and + to the same operands,
// in the same successor order, so every level is the same double; walk()
// keeps critical_path()'s tie rules (largest-level source, smallest id on
// ties; the smallest-id successor whose level equals the remaining
// length; the first maximum-level successor as the fallback).

#include <span>
#include <vector>

#include "core/problem_instance.hpp"

namespace ptgsched {

class CriticalPathSweep {
 public:
  /// Buffers sized once for `instance`, which must outlive the sweep.
  explicit CriticalPathSweep(const ProblemInstance& instance);

  /// Bottom levels under `times` (indexed by TaskId, size V); returns
  /// t_cp, the maximum bottom level.
  double sweep(std::span<const double> times);

  /// One critical path, source to sink, over the levels of the last
  /// sweep(); `times` must be the array that sweep read. The span stays
  /// valid until the next walk().
  [[nodiscard]] std::span<const TaskId> walk(std::span<const double> times);

 private:
  const ProblemInstance& instance_;
  std::vector<double> bl_;
  std::vector<TaskId> path_;
};

}  // namespace ptgsched
