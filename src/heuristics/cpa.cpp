#include "heuristics/cpa.hpp"

#include "heuristics/critical_path_sweep.hpp"

namespace ptgsched {

namespace {

/// Shared CPA allocation loop. With `level_bound` the processors granted
/// within one precedence level never exceed P (MCPA); without it the loop
/// is classic CPA/HCPA. All execution times come from the instance's
/// precomputed table.
Allocation cpa_core(const ProblemInstance& pi, bool level_bound) {
  const int P = pi.num_processors();
  const std::size_t n = pi.num_tasks();
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

  CriticalPathSweep cp(pi);

  // Each iteration grants exactly one processor, so the loop runs at most
  // V * (P - 1) times; the explicit bound guards against model pathologies.
  const std::size_t max_iters = n * static_cast<std::size_t>(P) + 1;
  for (std::size_t iter = 0; iter < max_iters; ++iter) {
    const double t_cp = cp.sweep(times);
    double work = 0.0;
    for (TaskId v = 0; v < n; ++v) {
      work += static_cast<double>(alloc[v]) * times[v];
    }
    const double t_a = work / static_cast<double>(P);
    if (t_cp <= t_a) break;

    // Candidate = critical-path task with the best improvement of the
    // average per-processor time T(v,s)/s when granted one more processor.
    const std::span<const TaskId> path = cp.walk(times);
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

}  // namespace

Allocation CpaAllocation::allocate(const ProblemInstance& instance) const {
  return cpa_core(instance, /*level_bound=*/false);
}

Allocation HcpaAllocation::allocate(const ProblemInstance& instance) const {
  // HCPA allocates on a homogeneous *reference cluster* and translates the
  // result to the target clusters. With a single homogeneous cluster the
  // reference cluster has the same processor count and speed as the
  // target, execution times agree exactly, and the procedure reduces to
  // CPA's loop on the instance itself (DESIGN.md).
  return cpa_core(instance, /*level_bound=*/false);
}

Allocation McpaAllocation::allocate(const ProblemInstance& instance) const {
  return cpa_core(instance, /*level_bound=*/true);
}

Allocation Mcpa2Allocation::allocate(const ProblemInstance& instance) const {
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

}  // namespace ptgsched
