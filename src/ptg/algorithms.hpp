#pragma once
// Graph algorithms on PTGs: topological order, precedence levels, bottom
// levels, and critical paths.
//
// Bottom levels drive both the list scheduler's priority order (Section
// III-A: "ready nodes are sorted by decreasing bottom level") and the
// Delta-critical seeding heuristic (Section III-B). All time-dependent
// quantities take the per-task execution time as a callback so that they
// work with any allocation and any execution-time model.

#include <functional>
#include <vector>

#include "ptg/graph.hpp"

namespace ptgsched {

/// Execution time of a task under the current allocation, by id.
using TaskTimeFn = std::function<double(TaskId)>;

/// True iff the graph has no directed cycle.
[[nodiscard]] bool is_acyclic(const Ptg& g);

/// Topological order (Kahn). Ties are broken by ascending TaskId, so the
/// order is deterministic. Throws GraphError if the graph has a cycle.
[[nodiscard]] std::vector<TaskId> topological_order(const Ptg& g);

/// Precedence level of every task: length (in edges) of the longest path
/// from any source; sources are level 0. This is the "depth of the nodes
/// from the source" used to group Delta-critical tasks (Section III-B) and
/// the level bound of MCPA.
[[nodiscard]] std::vector<int> precedence_levels(const Ptg& g);

/// Number of precedence levels (max level + 1).
[[nodiscard]] int num_precedence_levels(const Ptg& g);

/// Tasks grouped by precedence level, level index -> task ids (ascending).
[[nodiscard]] std::vector<std::vector<TaskId>> tasks_by_level(const Ptg& g);

/// Bottom level bl(v): longest path from v to any sink, *including* the
/// execution time of v itself (footnote 1 of the paper).
[[nodiscard]] std::vector<double> bottom_levels(const Ptg& g,
                                                const TaskTimeFn& time);

/// In-place variants writing into a caller-provided buffer (resized to V).
/// `topo` must be a topological order of g. These avoid reallocation in the
/// EA's fitness loop, which recomputes bottom levels per individual.
void bottom_levels_into(const Ptg& g, std::span<const TaskId> topo,
                        const TaskTimeFn& time, std::vector<double>& out);

/// Critical-path length: max over tasks of bl(v).
[[nodiscard]] double critical_path_length(const Ptg& g,
                                          const TaskTimeFn& time);

/// One critical path from a source to a sink, as a task sequence.
/// Deterministic: ties broken by ascending TaskId.
[[nodiscard]] std::vector<TaskId> critical_path(const Ptg& g,
                                                const TaskTimeFn& time);

/// Maximum number of pairwise-independent tasks per precedence level
/// (a cheap width proxy used by generators and tests).
[[nodiscard]] std::size_t max_level_width(const Ptg& g);

}  // namespace ptgsched
