#include "sched/multi_cluster_scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "sched/mapping_kernel.hpp"
#include "sched/validate.hpp"

namespace ptgsched {

namespace {

/// Shared size checks for both entry points: `procs[k]` is the processor
/// count of cluster k.
void validate_mc_sizes(const McAllocation& alloc, const Ptg& g,
                       const std::vector<int>& procs) {
  if (alloc.sizes.size() != g.num_tasks()) {
    throw GraphError("mc allocation: row count does not match task count");
  }
  for (std::size_t v = 0; v < alloc.sizes.size(); ++v) {
    if (alloc.sizes[v].size() != procs.size()) {
      throw GraphError("mc allocation: task " + std::to_string(v) +
                       " has wrong cluster arity");
    }
    for (std::size_t k = 0; k < procs.size(); ++k) {
      const int s = alloc.sizes[v][k];
      if (s < 1 || s > procs[k]) {
        throw GraphError("mc allocation: task " + std::to_string(v) +
                         " size " + std::to_string(s) +
                         " invalid for cluster " + std::to_string(k));
      }
    }
  }
}

}  // namespace

void validate_mc_allocation(const McAllocation& alloc, const Ptg& g,
                            const MultiClusterPlatform& platform) {
  std::vector<int> procs(platform.num_clusters());
  for (std::size_t k = 0; k < procs.size(); ++k) {
    procs[k] = platform.cluster(k).num_processors();
  }
  validate_mc_sizes(alloc, g, procs);
}

Schedule map_mc_allocation(
    const McAllocation& alloc,
    std::span<const std::shared_ptr<const ProblemInstance>> clusters,
    const std::vector<double>& priority_times) {
  if (clusters.empty()) {
    throw GraphError("mc mapping: no clusters");
  }
  for (const auto& c : clusters) {
    if (c == nullptr) throw GraphError("mc mapping: null cluster instance");
    if (&c->graph() != &clusters.front()->graph()) {
      throw GraphError("mc mapping: cluster instances disagree on the graph");
    }
  }
  const ProblemInstance& pi0 = *clusters.front();
  const Ptg& g = pi0.graph();
  if (priority_times.size() != g.num_tasks()) {
    throw GraphError("mc mapping: priority time vector has wrong size");
  }

  // Lanes mirror the platform's global processor numbering: cluster k's
  // first processor sits after all preceding clusters.
  std::vector<MappingLane> lanes(clusters.size());
  std::vector<int> procs(clusters.size());
  std::vector<const double*> tables(clusters.size());
  int first = 0;
  for (std::size_t k = 0; k < clusters.size(); ++k) {
    procs[k] = clusters[k]->num_processors();
    lanes[k] = MappingLane{procs[k], first};
    first += procs[k];
    tables[k] = clusters[k]->time_table().data();
  }
  validate_mc_sizes(alloc, g, procs);
  const int total_processors = first;

  MappingKernel core(pi0, std::move(lanes));
  Schedule out(g.name(), total_processors);

  // Lane policy: the cluster that finishes v earliest wins; a strict `<`
  // keeps the lower cluster index on ties.
  const auto place = [&](TaskId v, double data_ready) {
    MappingKernel::Placement best;
    best.finish = std::numeric_limits<double>::infinity();
    for (std::size_t k = 0; k < clusters.size(); ++k) {
      const auto s = static_cast<std::size_t>(alloc.sizes[v][k]);
      const double start = core.earliest_start(k, s, data_ready);
      const double finish =
          start + tables[k][v * static_cast<std::size_t>(procs[k]) + (s - 1)];
      if (finish < best.finish) {
        best.lane = k;
        best.size = s;
        best.start = start;
        best.finish = finish;
      }
    }
    return best;
  };
  core.run(priority_times, ProcessorSelection::EarliestAvailable,
           std::numeric_limits<double>::infinity(), &out, place);
  return out;
}

void validate_mc_schedule(const Schedule& sched, const Ptg& g,
                          const McAllocation& alloc,
                          const ExecutionTimeModel& model,
                          const MultiClusterPlatform& platform) {
  validate_mc_allocation(alloc, g, platform);
  if (sched.num_tasks() != g.num_tasks()) {
    throw ScheduleError("mc schedule: task count mismatch");
  }
  constexpr double kTol = 1e-9;
  for (TaskId v = 0; v < g.num_tasks(); ++v) {
    const PlacedTask& p = sched.placement(v);
    // All processors inside one cluster.
    const std::size_t k = platform.cluster_of(p.processors.front());
    for (const int proc : p.processors) {
      if (platform.cluster_of(proc) != k) {
        throw ScheduleError("mc schedule: task " + std::to_string(v) +
                                  " spans clusters");
      }
    }
    if (p.allocation() != alloc.sizes[v][k]) {
      throw ScheduleError("mc schedule: task " + std::to_string(v) +
                                " placed on wrong processor count");
    }
    const double want =
        model.time(g.task(v), p.allocation(), platform.cluster(k));
    if (std::fabs(p.duration() - want) > kTol * std::max(1.0, want)) {
      throw ScheduleError("mc schedule: task " + std::to_string(v) +
                                " duration inconsistent with its cluster");
    }
    for (const TaskId u : g.predecessors(v)) {
      if (p.start + kTol < sched.placement(u).finish) {
        throw ScheduleError("mc schedule: precedence violated at task " +
                                  std::to_string(v));
      }
    }
  }
  // Capacity per global processor.
  std::vector<std::vector<std::pair<double, double>>> busy(
      static_cast<std::size_t>(platform.total_processors()));
  for (const PlacedTask& p : sched.placed()) {
    for (const int c : p.processors) {
      busy[static_cast<std::size_t>(c)].emplace_back(p.start, p.finish);
    }
  }
  for (auto& intervals : busy) {
    std::sort(intervals.begin(), intervals.end());
    for (std::size_t i = 1; i < intervals.size(); ++i) {
      if (intervals[i].first + kTol < intervals[i - 1].second) {
        throw ScheduleError("mc schedule: processor oversubscribed");
      }
    }
  }
}

}  // namespace ptgsched
