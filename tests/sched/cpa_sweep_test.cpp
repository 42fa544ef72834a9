// Oracle tests for CriticalPathSweep, the per-grant step of the CPA-family
// allocation loops: the shipped CPA, HCPA, MCPA, MCPA2 and BiCPA must
// return exactly the allocations of the reference loops in
// tests/common/cpa_reference.hpp, and the sweep's walk must return the
// path critical_path() returns.
//
// Inputs: fft, strassen, layered and irregular PTGs near 20, 100 and 500
// tasks (fft and strassen come in fixed shapes: fft at 15, 95 and 511
// tasks, strassen at 23 and 177), on chti, grelon and a heterogeneous
// chti, under Model 1 and Model 2; plus degenerate shapes (one task, a
// P = 1 cluster, a chain, tie-heavy fan-outs, a rounding fan-out that
// takes critical_path()'s fallback branch, and a source that absorbs its
// successor's level).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "../common/cpa_reference.hpp"
#include "../common/test_graphs.hpp"
#include "daggen/application_graphs.hpp"
#include "daggen/corpus.hpp"
#include "heuristics/bicpa.hpp"
#include "heuristics/cpa.hpp"
#include "heuristics/critical_path_sweep.hpp"
#include "ptg/algorithms.hpp"
#include "support/rng.hpp"

namespace ptgsched {
namespace {

namespace reference = testutil::reference;
using testutil::make_instance;
using testutil::simple_task;

struct Case {
  std::string label;
  std::shared_ptr<const ProblemInstance> pi;
};

/// The generated graphs: `counts[i]` DAGGEN instances at sizes[i] tasks
/// per class, plus the fft and strassen shapes whose size is at most
/// `max_tasks`.
std::vector<Ptg> generated_graphs(const std::vector<int>& sizes,
                                  const std::vector<std::size_t>& counts,
                                  int max_tasks) {
  std::vector<Ptg> graphs;
  Rng rng(2011);
  for (const int points : {4, 16, 64}) {
    Ptg g = make_fft_ptg(points, rng);
    if (static_cast<int>(g.num_tasks()) <= max_tasks) {
      graphs.push_back(std::move(g));
    }
  }
  for (const int depth : {1, 2}) {
    Ptg g = make_strassen_ptg(rng, depth);
    if (static_cast<int>(g.num_tasks()) <= max_tasks) {
      graphs.push_back(std::move(g));
    }
  }
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    for (auto& g : layered_corpus(sizes[i], counts[i], 17)) {
      graphs.push_back(std::move(g));
    }
    for (auto& g : irregular_corpus(sizes[i], counts[i], 19)) {
      graphs.push_back(std::move(g));
    }
  }
  return graphs;
}

std::vector<Case> generated_cases(const std::vector<int>& sizes,
                                  const std::vector<std::size_t>& counts,
                                  int max_tasks,
                                  const std::vector<Cluster>& clusters) {
  std::vector<Case> cases;
  const std::vector<Ptg> graphs = generated_graphs(sizes, counts, max_tasks);
  for (const Cluster& cluster : clusters) {
    for (const char* model : {"model1", "model2"}) {
      for (std::size_t i = 0; i < graphs.size(); ++i) {
        cases.push_back(
            {cluster.name() + "/" + model + "/" + graphs[i].name() + "#" +
                 std::to_string(i) + "(" +
                 std::to_string(graphs[i].num_tasks()) + " tasks)",
             make_instance(graphs[i], make_model(model), cluster)});
      }
    }
  }
  return cases;
}

std::vector<Cluster> paper_clusters() {
  return {chti(), grelon(), heterogeneous_variant(chti())};
}

/// A source of cost 0.1 feeding two sinks of cost 0.2, edge to task 2
/// first. 0.1 + 0.2 rounds up, so bl(src) - t(src) matches neither sink's
/// level and the walk takes critical_path()'s fallback: the first
/// maximum-level successor in edge order (task 2), not the smallest id.
Ptg rounding_fan_out() {
  Ptg g("rounding");
  g.add_task(simple_task("src", 0.1));
  g.add_task(simple_task("a", 0.2));
  g.add_task(simple_task("b", 0.2));
  g.add_edge(0, 2);
  g.add_edge(0, 1);
  return g;
}

/// Degenerate shapes under exact-time models, where bottom levels and
/// gains tie and the walk's tie rules decide the path.
std::vector<Case> degenerate_cases() {
  const auto fixed = std::make_shared<const testutil::FixedTimeModel>();
  const auto linear = std::make_shared<const testutil::LinearSpeedupModel>();
  const auto amdahl = make_model("model1");
  std::vector<Case> cases;

  Ptg one("one");
  one.add_task(simple_task("only", 5.0, 0.1));

  Ptg chain("chain");
  for (int i = 0; i < 12; ++i) {
    chain.add_task(simple_task("c" + std::to_string(i), 1.0 + i % 3));
    if (i > 0) {
      chain.add_edge(static_cast<TaskId>(i - 1), static_cast<TaskId>(i));
    }
  }

  // One source feeding eight equal sinks: every sink's bottom level and
  // gain ties, so the smallest id must win both.
  Ptg fan_out("fan_out");
  fan_out.add_task(simple_task("src", 1.0));
  for (int i = 0; i < 8; ++i) {
    fan_out.add_task(simple_task("w" + std::to_string(i), 2.0));
    fan_out.add_edge(0, static_cast<TaskId>(i + 1));
  }

  // Equal independent tasks: every task is a tying source.
  Ptg independent("independent");
  for (int i = 0; i < 6; ++i) {
    independent.add_task(simple_task("t" + std::to_string(i), 3.0));
  }

  Ptg rounding = rounding_fan_out();

  // The sink's level is absorbed by rounding (1e20 + 1 == 1e20), so the
  // remaining length after the source is exactly 0 and the walk must
  // stop there rather than take the fallback.
  Ptg absorbed("absorbed");
  absorbed.add_task(simple_task("huge", 1e20));
  absorbed.add_task(simple_task("tiny", 1.0));
  absorbed.add_edge(0, 1);

  const Cluster unit8 = testutil::unit_cluster(8);
  const Cluster unit1 = testutil::unit_cluster(1);
  for (const Ptg* g :
       {&one, &chain, &fan_out, &independent, &rounding, &absorbed}) {
    cases.push_back(
        {g->name() + "/fixed/P8", make_instance(*g, fixed, unit8)});
    cases.push_back(
        {g->name() + "/linear/P8", make_instance(*g, linear, unit8)});
    cases.push_back(
        {g->name() + "/amdahl/P8", make_instance(*g, amdahl, unit8)});
    cases.push_back(
        {g->name() + "/linear/P1", make_instance(*g, linear, unit1)});
  }
  cases.push_back({"fork_join/linear/P8",
                   make_instance(testutil::fork_join(6), linear, unit8)});
  cases.push_back({"diamond/amdahl/P1",
                   make_instance(testutil::diamond(), amdahl, unit1)});
  return cases;
}

void expect_cpa_family_matches_reference(const Case& c) {
  const ProblemInstance& pi = *c.pi;
  const Allocation cpa = reference::cpa_core(pi, /*level_bound=*/false);
  const Allocation mcpa = reference::cpa_core(pi, /*level_bound=*/true);
  EXPECT_EQ(CpaAllocation().allocate(pi), cpa) << c.label;
  EXPECT_EQ(HcpaAllocation().allocate(pi), cpa) << c.label;
  EXPECT_EQ(McpaAllocation().allocate(pi), mcpa) << c.label;
  EXPECT_EQ(Mcpa2Allocation().allocate(pi), reference::mcpa2(pi)) << c.label;
}

/// Task times under `alloc`, as the grant loop keeps them.
std::vector<double> times_under(const ProblemInstance& pi,
                                const Allocation& alloc) {
  std::vector<double> times(pi.num_tasks());
  for (TaskId v = 0; v < pi.num_tasks(); ++v) {
    times[v] = pi.time(v, alloc[v]);
  }
  return times;
}

void expect_walk_matches_critical_path(const Case& c, std::uint64_t seed) {
  const ProblemInstance& pi = *c.pi;
  const int P = pi.num_processors();
  Rng rng(seed);
  Allocation random(pi.num_tasks());
  for (int& s : random) s = static_cast<int>(rng.uniform_int(1, P));
  CriticalPathSweep sweep(pi);
  for (const Allocation& alloc :
       {Allocation(pi.num_tasks(), 1), random,
        reference::cpa_core(pi, /*level_bound=*/false)}) {
    const std::vector<double> times = times_under(pi, alloc);
    const TaskTimeFn time = [&times](TaskId v) { return times[v]; };
    EXPECT_EQ(sweep.sweep(times), critical_path_length(pi.graph(), time))
        << c.label;
    const std::span<const TaskId> path = sweep.walk(times);
    EXPECT_EQ(std::vector<TaskId>(path.begin(), path.end()),
              critical_path(pi.graph(), time))
        << c.label;
  }
}

TEST(CpaSweep, CpaFamilyMatchesReferenceLoops) {
  for (const Case& c : generated_cases({20, 100, 500}, {12, 4, 1}, 600,
                                       paper_clusters())) {
    expect_cpa_family_matches_reference(c);
  }
  for (const Case& c : degenerate_cases()) {
    expect_cpa_family_matches_reference(c);
  }
}

TEST(CpaSweep, BicpaMatchesReferenceLoop) {
  // BiCPA runs one CPA loop per virtual cluster size, so it is checked on
  // the 20-processor platforms up to ~100 tasks and on grelon at ~20.
  std::vector<Case> cases =
      generated_cases({20, 100}, {6, 2}, 100,
                      {chti(), heterogeneous_variant(chti())});
  for (Case& c : generated_cases({20}, {3}, 30, {grelon()})) {
    cases.push_back(std::move(c));
  }
  for (Case& c : degenerate_cases()) cases.push_back(std::move(c));
  for (const Case& c : cases) {
    EXPECT_EQ(BicpaAllocation().allocate(*c.pi), reference::bicpa(*c.pi))
        << c.label;
    EXPECT_EQ(BicpaAllocation(3).allocate(*c.pi), reference::bicpa(*c.pi, 3))
        << c.label;
  }
}

TEST(CpaSweep, WalkMatchesCriticalPath) {
  std::uint64_t seed = 1;
  for (const Case& c : generated_cases({20, 100, 500}, {12, 4, 1}, 600,
                                       paper_clusters())) {
    expect_walk_matches_critical_path(c, seed++);
  }
  for (const Case& c : degenerate_cases()) {
    expect_walk_matches_critical_path(c, seed++);
  }
}

TEST(CpaSweep, RoundingFanOutTakesTheFallbackSuccessor) {
  // Pins the fallback branch the degenerate corpus relies on: without it
  // the walk would stop at the source.
  const auto pi = make_instance(
      rounding_fan_out(), std::make_shared<const testutil::FixedTimeModel>(),
      testutil::unit_cluster(4));
  const std::vector<double> times = {0.1, 0.2, 0.2};
  CriticalPathSweep sweep(*pi);
  EXPECT_EQ(sweep.sweep(times), 0.1 + 0.2);
  const std::span<const TaskId> path = sweep.walk(times);
  EXPECT_EQ(std::vector<TaskId>(path.begin(), path.end()),
            (std::vector<TaskId>{0, 2}));
}

}  // namespace
}  // namespace ptgsched
