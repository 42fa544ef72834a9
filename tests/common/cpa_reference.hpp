#pragma once
// Reference copies of the CPA-family allocation loops as they stood before
// the grant loop moved onto CriticalPathSweep: each grant ran
// bottom_levels_into() and then critical_path(), which re-derives the
// topological order and the bottom levels from the Ptg. The bodies are
// verbatim; only the wrappers' signatures changed: MCPA2's post pass and
// BiCPA's selection become free functions, and BiCPA's members become
// parameters of the same names. Tests assert that the shipped heuristics
// return exactly these allocations.

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/problem_instance.hpp"
#include "ptg/algorithms.hpp"
#include "sched/list_scheduler.hpp"

namespace ptgsched::testutil::reference {

/// CPA (level_bound = false; also HCPA on one homogeneous cluster) and
/// MCPA (level_bound = true).
inline Allocation cpa_core(const ProblemInstance& pi, bool level_bound) {
  const Ptg& g = pi.graph();
  const int P = pi.num_processors();
  const std::size_t n = pi.num_tasks();
  const std::span<const TaskId> topo = pi.topo_order();
  const std::span<const int> levels = pi.precedence_levels();
  const double* table = pi.time_table().data();
  const auto stride = static_cast<std::size_t>(P);

  Allocation alloc(n, 1);
  std::vector<double> times(n);
  for (TaskId v = 0; v < n; ++v) times[v] = table[v * stride];

  std::vector<long long> level_alloc(static_cast<std::size_t>(pi.num_levels()),
                                     0);
  for (TaskId v = 0; v < n; ++v) {
    level_alloc[static_cast<std::size_t>(levels[v])] += 1;
  }

  std::vector<double> bl;
  const auto time_of = [&](TaskId v) { return times[v]; };

  // Each iteration grants exactly one processor, so the loop runs at most
  // V * (P - 1) times; the explicit bound guards against model pathologies.
  const std::size_t max_iters = n * static_cast<std::size_t>(P) + 1;
  for (std::size_t iter = 0; iter < max_iters; ++iter) {
    bottom_levels_into(g, topo, time_of, bl);
    const double t_cp = *std::max_element(bl.begin(), bl.end());
    double work = 0.0;
    for (TaskId v = 0; v < n; ++v) {
      work += static_cast<double>(alloc[v]) * times[v];
    }
    const double t_a = work / static_cast<double>(P);
    if (t_cp <= t_a) break;

    // Candidate = critical-path task with the best improvement of the
    // average per-processor time T(v,s)/s when granted one more processor.
    const auto path = critical_path(g, time_of);
    TaskId best = kInvalidTask;
    double best_gain = 0.0;
    for (const TaskId v : path) {
      const int s = alloc[v];
      if (s >= P) continue;
      if (level_bound &&
          level_alloc[static_cast<std::size_t>(levels[v])] >= P) {
        continue;
      }
      const double t_next = table[v * stride + static_cast<std::size_t>(s)];
      const double gain = times[v] / static_cast<double>(s) -
                          t_next / static_cast<double>(s + 1);
      if (gain > best_gain ||
          (gain == best_gain && best != kInvalidTask && v < best &&
           gain > 0.0)) {
        best = v;
        best_gain = gain;
      }
    }
    // Under a non-monotonic model every critical task's gain can turn
    // non-positive; the procedure then stops (Section V-B: allocations
    // "grow up to a size of 4-8 processors before the allocation procedure
    // stops").
    if (best == kInvalidTask || !(best_gain > 0.0)) break;

    alloc[best] += 1;
    times[best] = table[best * stride + static_cast<std::size_t>(alloc[best]) -
                        1];
    level_alloc[static_cast<std::size_t>(levels[best])] += 1;
  }
  return alloc;
}

/// MCPA2: MCPA plus the per-level post pass.
inline Allocation mcpa2(const ProblemInstance& instance) {
  Allocation alloc = cpa_core(instance, /*level_bound=*/true);
  const int P = instance.num_processors();
  const std::size_t n = instance.num_tasks();
  const double* table = instance.time_table().data();
  const auto stride = static_cast<std::size_t>(P);

  std::vector<double> times(n);
  for (TaskId v = 0; v < n; ++v) {
    times[v] = table[v * stride + static_cast<std::size_t>(alloc[v]) - 1];
  }

  // Post pass: spend the capacity MCPA left unused in each level on that
  // level's longest task, as long as doing so strictly shortens it.
  for (const auto& level : instance.tasks_by_level()) {
    long long used = 0;
    for (const TaskId v : level) used += alloc[v];
    while (used < P) {
      TaskId longest = kInvalidTask;
      for (const TaskId v : level) {
        if (alloc[v] >= P) continue;
        if (longest == kInvalidTask || times[v] > times[longest]) longest = v;
      }
      if (longest == kInvalidTask) break;
      const double t_next =
          table[longest * stride + static_cast<std::size_t>(alloc[longest])];
      if (!(t_next < times[longest])) break;
      alloc[longest] += 1;
      times[longest] = t_next;
      ++used;
    }
  }
  return alloc;
}


/// BiCPA's CPA loop against a virtual cluster of b processors.
inline Allocation cpa_for_virtual_size(const ProblemInstance& pi, int b) {
  const Ptg& g = pi.graph();
  const std::size_t n = pi.num_tasks();
  const std::span<const TaskId> topo = pi.topo_order();
  const double* table = pi.time_table().data();
  const auto stride = static_cast<std::size_t>(pi.num_processors());
  Allocation alloc(n, 1);
  std::vector<double> times(n);
  for (TaskId v = 0; v < n; ++v) times[v] = table[v * stride];
  std::vector<double> bl;

  const std::size_t max_iters = n * static_cast<std::size_t>(b) + 1;
  for (std::size_t iter = 0; iter < max_iters; ++iter) {
    bottom_levels_into(g, topo, [&](TaskId v) { return times[v]; }, bl);
    const double t_cp = *std::max_element(bl.begin(), bl.end());
    double work = 0.0;
    for (TaskId v = 0; v < n; ++v) {
      work += static_cast<double>(alloc[v]) * times[v];
    }
    if (t_cp <= work / static_cast<double>(b)) break;

    const auto path =
        critical_path(g, [&](TaskId v) { return times[v]; });
    TaskId best = kInvalidTask;
    double best_gain = 0.0;
    for (const TaskId v : path) {
      const int s = alloc[v];
      if (s >= b) continue;
      const double t_next = table[v * stride + static_cast<std::size_t>(s)];
      const double gain = times[v] / static_cast<double>(s) -
                          t_next / static_cast<double>(s + 1);
      if (gain > best_gain) {
        best = v;
        best_gain = gain;
      }
    }
    if (best == kInvalidTask || !(best_gain > 0.0)) break;
    alloc[best] += 1;
    times[best] = table[best * stride + static_cast<std::size_t>(alloc[best]) -
                        1];
  }
  return alloc;
}

/// BiCPA: the best mapped allocation over the virtual cluster sizes.
inline Allocation bicpa(const ProblemInstance& instance, int stride_ = 1,
                        ListSchedulerOptions mapping_ = {}) {
  const int P = instance.num_processors();
  ListScheduler mapper(instance.shared_from_this(), mapping_);

  Allocation best_alloc;
  double best_makespan = 0.0;
  for (int b = 1; b <= P; b += stride_) {
    Allocation alloc = cpa_for_virtual_size(instance, b);
    const double m = mapper.makespan(alloc);
    if (best_alloc.empty() || m < best_makespan) {
      best_makespan = m;
      best_alloc = std::move(alloc);
    }
  }
  // Always include the full-size sweep endpoint so stride > 1 still
  // considers plain CPA's operating point.
  if ((P - 1) % stride_ != 0) {
    Allocation alloc = cpa_for_virtual_size(instance, P);
    if (mapper.makespan(alloc) < best_makespan) best_alloc = std::move(alloc);
  }
  return best_alloc;
}

}  // namespace ptgsched::testutil::reference
