#include "heuristics/critical_path_sweep.hpp"

#include <algorithm>
#include <limits>

namespace ptgsched {

CriticalPathSweep::CriticalPathSweep(const ProblemInstance& instance)
    : instance_(instance), bl_(instance.num_tasks(), 0.0) {}

double CriticalPathSweep::sweep(std::span<const double> times) {
  const std::span<const TaskId> topo = instance_.topo_order();
  const std::uint32_t* off = instance_.succ_offsets().data();
  const TaskId* adj = instance_.succ_adjacency().data();
  double t_cp = -std::numeric_limits<double>::infinity();
  // Reverse topological sweep: bl(v) = t(v) + max over successors.
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const TaskId v = *it;
    double best = 0.0;
    for (std::uint32_t e = off[v]; e < off[v + 1]; ++e) {
      best = std::max(best, bl_[adj[e]]);
    }
    bl_[v] = times[v] + best;
    t_cp = std::max(t_cp, bl_[v]);
  }
  return t_cp;
}

std::span<const TaskId> CriticalPathSweep::walk(
    std::span<const double> times) {
  const std::uint32_t* off = instance_.succ_offsets().data();
  const TaskId* adj = instance_.succ_adjacency().data();
  path_.clear();
  TaskId cur = kInvalidTask;
  for (const TaskId v : instance_.source_tasks()) {
    if (cur == kInvalidTask || bl_[v] > bl_[cur]) cur = v;
  }
  while (cur != kInvalidTask) {
    path_.push_back(cur);
    const double remaining = bl_[cur] - times[cur];
    TaskId next = kInvalidTask;
    if (remaining > 0.0) {
      for (std::uint32_t e = off[cur]; e < off[cur + 1]; ++e) {
        const TaskId w = adj[e];
        if (bl_[w] == remaining && (next == kInvalidTask || w < next)) {
          next = w;
        }
      }
      // The same rounding fallback as critical_path(): no successor's
      // level equals the remaining length, so take the first one with
      // the maximum level.
      if (next == kInvalidTask) {
        for (std::uint32_t e = off[cur]; e < off[cur + 1]; ++e) {
          const TaskId w = adj[e];
          if (next == kInvalidTask || bl_[w] > bl_[next]) next = w;
        }
      }
    }
    cur = next;
  }
  return path_;
}

}  // namespace ptgsched
