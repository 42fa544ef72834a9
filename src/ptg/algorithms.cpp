#include "ptg/algorithms.hpp"

#include <algorithm>
#include <queue>

namespace ptgsched {

namespace {

// Kahn's algorithm with a min-heap on TaskId for deterministic order.
// Returns an empty vector if a cycle prevents completion.
std::vector<TaskId> kahn_order(const Ptg& g) {
  const std::size_t n = g.num_tasks();
  std::vector<std::size_t> indeg(n);
  std::priority_queue<TaskId, std::vector<TaskId>, std::greater<>> ready;
  for (TaskId v = 0; v < n; ++v) {
    indeg[v] = g.in_degree(v);
    if (indeg[v] == 0) ready.push(v);
  }
  std::vector<TaskId> order;
  order.reserve(n);
  while (!ready.empty()) {
    const TaskId v = ready.top();
    ready.pop();
    order.push_back(v);
    for (const TaskId w : g.successors(v)) {
      if (--indeg[w] == 0) ready.push(w);
    }
  }
  if (order.size() != n) order.clear();
  return order;
}

}  // namespace

bool is_acyclic(const Ptg& g) {
  return g.num_tasks() == 0 || !kahn_order(g).empty();
}

std::vector<TaskId> topological_order(const Ptg& g) {
  if (g.num_tasks() == 0) return {};
  auto order = kahn_order(g);
  if (order.empty()) throw GraphError("topological_order: graph has a cycle");
  return order;
}

std::vector<int> precedence_levels(const Ptg& g) {
  const auto topo = topological_order(g);
  std::vector<int> level(g.num_tasks(), 0);
  for (const TaskId v : topo) {
    for (const TaskId w : g.successors(v)) {
      level[w] = std::max(level[w], level[v] + 1);
    }
  }
  return level;
}

int num_precedence_levels(const Ptg& g) {
  if (g.num_tasks() == 0) return 0;
  const auto levels = precedence_levels(g);
  return *std::max_element(levels.begin(), levels.end()) + 1;
}

std::vector<std::vector<TaskId>> tasks_by_level(const Ptg& g) {
  const auto levels = precedence_levels(g);
  std::vector<std::vector<TaskId>> out(
      static_cast<std::size_t>(num_precedence_levels(g)));
  for (TaskId v = 0; v < g.num_tasks(); ++v) {
    out[static_cast<std::size_t>(levels[v])].push_back(v);
  }
  return out;
}

void bottom_levels_into(const Ptg& g, std::span<const TaskId> topo,
                        const TaskTimeFn& time, std::vector<double>& out) {
  out.assign(g.num_tasks(), 0.0);
  // Reverse topological sweep: bl(v) = t(v) + max over successors.
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const TaskId v = *it;
    double best = 0.0;
    for (const TaskId w : g.successors(v)) best = std::max(best, out[w]);
    out[v] = time(v) + best;
  }
}

std::vector<double> bottom_levels(const Ptg& g, const TaskTimeFn& time) {
  std::vector<double> out;
  const auto topo = topological_order(g);
  bottom_levels_into(g, topo, time, out);
  return out;
}

double critical_path_length(const Ptg& g, const TaskTimeFn& time) {
  if (g.num_tasks() == 0) return 0.0;
  const auto bl = bottom_levels(g, time);
  return *std::max_element(bl.begin(), bl.end());
}

std::vector<TaskId> critical_path(const Ptg& g, const TaskTimeFn& time) {
  if (g.num_tasks() == 0) return {};
  const auto bl = bottom_levels(g, time);

  // Start from the source-level task with the largest bottom level
  // (smallest id on ties), then repeatedly follow the successor whose
  // bottom level matches the remaining path length.
  TaskId cur = kInvalidTask;
  for (TaskId v = 0; v < g.num_tasks(); ++v) {
    if (g.in_degree(v) != 0) continue;
    if (cur == kInvalidTask || bl[v] > bl[cur]) cur = v;
  }
  std::vector<TaskId> path;
  while (cur != kInvalidTask) {
    path.push_back(cur);
    const double remaining = bl[cur] - time(cur);
    TaskId next = kInvalidTask;
    for (const TaskId w : g.successors(cur)) {
      // Floating-point equality is exact here: bl values are built from the
      // same additions in bottom_levels.
      if (bl[w] == remaining && remaining > 0.0 &&
          (next == kInvalidTask || w < next)) {
        next = w;
      }
    }
    // Defensive fallback for rounding asymmetries: take the successor with
    // the maximum bottom level.
    if (next == kInvalidTask && g.out_degree(cur) > 0 && remaining > 0.0) {
      for (const TaskId w : g.successors(cur)) {
        if (next == kInvalidTask || bl[w] > bl[next]) next = w;
      }
    }
    cur = next;
  }
  return path;
}

std::size_t max_level_width(const Ptg& g) {
  std::size_t width = 0;
  for (const auto& lvl : tasks_by_level(g)) {
    width = std::max(width, lvl.size());
  }
  return width;
}

}  // namespace ptgsched
