#include "heuristics/bicpa.hpp"

#include <stdexcept>

#include "heuristics/critical_path_sweep.hpp"

namespace ptgsched {

namespace {

// CPA allocation loop against a virtual cluster of b processors:
// allocations are clamped to b and the stopping criterion compares the
// critical path to W / b. Times come from the instance's table (b never
// exceeds the real cluster size, so every lookup is in range).
Allocation cpa_for_virtual_size(const ProblemInstance& pi, int b) {
  const std::size_t n = pi.num_tasks();
  const double* table = pi.time_table().data();
  const auto stride = static_cast<std::size_t>(pi.num_processors());
  Allocation alloc(n, 1);
  std::vector<double> times(n);
  for (TaskId v = 0; v < n; ++v) times[v] = table[v * stride];
  CriticalPathSweep cp(pi);

  const std::size_t max_iters = n * static_cast<std::size_t>(b) + 1;
  for (std::size_t iter = 0; iter < max_iters; ++iter) {
    const double t_cp = cp.sweep(times);
    double work = 0.0;
    for (TaskId v = 0; v < n; ++v) {
      work += static_cast<double>(alloc[v]) * times[v];
    }
    if (t_cp <= work / static_cast<double>(b)) break;

    const std::span<const TaskId> path = cp.walk(times);
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

}  // namespace

BicpaAllocation::BicpaAllocation(int stride, ListSchedulerOptions mapping)
    : stride_(stride), mapping_(mapping) {
  if (stride_ < 1) throw std::invalid_argument("BicpaAllocation: stride < 1");
}

Allocation BicpaAllocation::allocate(const ProblemInstance& instance) const {
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

}  // namespace ptgsched
