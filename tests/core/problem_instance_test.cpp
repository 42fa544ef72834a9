// Tests for the shared ProblemInstance core: time-table fidelity against
// the wrapped model, structural precomputation (topological order,
// precedence levels), sequential levels, and the ownership contract
// (DESIGN.md section 9).

#include "core/problem_instance.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "../common/test_graphs.hpp"
#include "daggen/corpus.hpp"
#include "model/execution_time.hpp"
#include "ptg/algorithms.hpp"
#include "ptg/analysis.hpp"
#include "sched/list_scheduler.hpp"

namespace ptgsched {
namespace {

using testutil::FixedTimeModel;
using testutil::make_instance;
using testutil::unit_cluster;

TEST(ProblemInstance, TimeTableMatchesModel) {
  const Ptg g = irregular_corpus(40, 1, 7).front();
  const Cluster c = chti();
  const SyntheticModel model;
  const auto pi = make_instance(g, model, c);

  ASSERT_EQ(pi->num_tasks(), g.num_tasks());
  ASSERT_EQ(pi->num_processors(), c.num_processors());
  ASSERT_EQ(pi->time_table().size(),
            g.num_tasks() * static_cast<std::size_t>(c.num_processors()));
  for (TaskId v = 0; v < g.num_tasks(); ++v) {
    const auto row = pi->times_of(v);
    ASSERT_EQ(row.size(), static_cast<std::size_t>(c.num_processors()));
    for (int p = 1; p <= c.num_processors(); ++p) {
      const double expected = model.time(g.task(v), p, c);
      EXPECT_DOUBLE_EQ(pi->time(v, p), expected);
      EXPECT_DOUBLE_EQ(row[static_cast<std::size_t>(p - 1)], expected);
    }
  }
}

TEST(ProblemInstance, TimeRejectsOutOfRangeProcessorCount) {
  const Ptg g = testutil::chain3();
  const Cluster c = unit_cluster(4);
  const FixedTimeModel model;
  const auto pi = make_instance(g, model, c);
  EXPECT_THROW((void)pi->time(0, 0), ModelError);
  EXPECT_THROW((void)pi->time(0, 5), ModelError);
  EXPECT_NO_THROW((void)pi->time(0, 4));
}

TEST(ProblemInstance, StructureMatchesFreeFunctions) {
  const Ptg g = irregular_corpus(35, 1, 11).front();
  const Cluster c = chti();
  const SyntheticModel model;
  const auto pi = make_instance(g, model, c);

  const std::vector<TaskId> topo = topological_order(g);
  ASSERT_EQ(pi->topo_order().size(), topo.size());
  for (std::size_t i = 0; i < topo.size(); ++i) {
    EXPECT_EQ(pi->topo_order()[i], topo[i]);
  }

  const std::vector<int> levels = precedence_levels(g);
  ASSERT_EQ(pi->precedence_levels().size(), levels.size());
  int max_level = -1;
  std::size_t grouped = 0;
  for (TaskId v = 0; v < g.num_tasks(); ++v) {
    EXPECT_EQ(pi->precedence_levels()[v], levels[v]);
    max_level = std::max(max_level, levels[v]);
  }
  EXPECT_EQ(pi->num_levels(), max_level + 1);
  ASSERT_EQ(pi->tasks_by_level().size(),
            static_cast<std::size_t>(pi->num_levels()));
  for (int l = 0; l < pi->num_levels(); ++l) {
    for (const TaskId v : pi->tasks_by_level()[static_cast<std::size_t>(l)]) {
      EXPECT_EQ(levels[v], l);
      ++grouped;
    }
  }
  EXPECT_EQ(grouped, g.num_tasks());
}

TEST(ProblemInstance, SequentialLevelsUseSingleProcessorTimes) {
  const Ptg g = testutil::chain3();  // flops 1, 2, 3 in a chain
  const Cluster c = unit_cluster(4);
  const FixedTimeModel model;
  const auto pi = make_instance(g, model, c);
  // bl(a) = 1+2+3, bl(b) = 2+3, bl(c) = 3.
  EXPECT_DOUBLE_EQ(pi->bottom_levels_seq()[0], 6.0);
  EXPECT_DOUBLE_EQ(pi->bottom_levels_seq()[1], 5.0);
  EXPECT_DOUBLE_EQ(pi->bottom_levels_seq()[2], 3.0);
}

TEST(ProblemInstance, CreateKeepsInputsAlive) {
  auto graph = std::make_shared<const Ptg>(testutil::diamond());
  auto model = std::make_shared<const FixedTimeModel>();
  auto cluster = std::make_shared<const Cluster>(unit_cluster(4));
  auto pi = ProblemInstance::create(graph, model, cluster);

  // Drop every external reference: the instance co-owns its inputs.
  graph.reset();
  model.reset();
  cluster.reset();
  EXPECT_EQ(pi->num_tasks(), 4u);
  EXPECT_DOUBLE_EQ(pi->time(1, 1), 4.0);  // diamond task l, flops 4
  EXPECT_EQ(pi->cluster().num_processors(), 4);

  // Residuals taken now share the base's model. With the source s done,
  // l (4) and r (2) run side by side on two processors, then t (1).
  const std::vector<bool> source_done = {true, false, false, false};
  const auto two = std::make_shared<const Cluster>(unit_cluster(2));
  const ResidualProblem early = pi->residual(source_done, two);
  const ResidualProblem late = pi->residual(source_done, two);
  ASSERT_NE(early.instance, nullptr);
  ASSERT_NE(late.instance, nullptr);
  const Allocation ones(3, 1);
  EXPECT_DOUBLE_EQ(ListScheduler(early.instance).makespan(ones), 5.0);

  // Dropping the base leaves both residuals working: `early` on tables it
  // already built, `late` builds its time table from the model only now.
  pi.reset();
  EXPECT_DOUBLE_EQ(ListScheduler(early.instance).makespan(ones), 5.0);
  EXPECT_DOUBLE_EQ(late.instance->time(late.from_base[1], 1), 4.0);
  EXPECT_DOUBLE_EQ(ListScheduler(late.instance).makespan(ones), 5.0);
}

TEST(ProblemInstance, RejectsNullInputsAndInvalidGraphs) {
  auto model = std::make_shared<const FixedTimeModel>();
  auto cluster = std::make_shared<const Cluster>(unit_cluster(2));
  EXPECT_THROW((void)ProblemInstance::create(nullptr, model, cluster),
               std::invalid_argument);
  EXPECT_THROW(
      (void)ProblemInstance::create(
          std::make_shared<const Ptg>(testutil::chain3()), nullptr, cluster),
      std::invalid_argument);
  EXPECT_THROW((void)ProblemInstance::create(
                   std::make_shared<const Ptg>(testutil::chain3()), model,
                   nullptr),
               std::invalid_argument);
}

TEST(ProblemInstance, ProcTimeTableScalesSequentialTimesBySpeed) {
  const Ptg g = testutil::chain3();
  const Cluster c("het", 4, 1.0, {1.0, 0.5, 2.0, 0.25});
  const testutil::FixedTimeModel model;
  const auto pi = make_instance(g, model, c);
  ASSERT_TRUE(pi->heterogeneous());
  const auto table = pi->proc_time_table();
  ASSERT_EQ(table.size(), g.num_tasks() * 4);
  for (TaskId v = 0; v < g.num_tasks(); ++v) {
    const double t1 = model.time(g.task(v), 1, c);
    EXPECT_EQ(pi->proc_time(v, 0), t1);
    EXPECT_EQ(pi->proc_time(v, 1), t1 / 0.5);
    EXPECT_EQ(pi->proc_time(v, 2), t1 / 2.0);
    EXPECT_EQ(pi->proc_time(v, 3), t1 / 0.25);
    for (int j = 0; j < 4; ++j) {
      EXPECT_EQ(table[v * 4 + static_cast<std::size_t>(j)],
                pi->proc_time(v, j));
    }
  }
  EXPECT_THROW((void)pi->proc_time(0, 4), ModelError);
  EXPECT_THROW((void)pi->proc_time(0, -1), ModelError);
}

TEST(ProblemInstance, AverageSpeedRanksFollowTheHeftRecurrence) {
  // chain3: a(1) -> b(2) -> c(3), unit mean speed would give bl = suffix
  // sums. Speeds {1.0, 0.5} have mean row time t1 * (1 + 2) / 2 = 1.5 t1,
  // and a uniform 0.5 link cost enters once per edge.
  const Ptg g = testutil::chain3();
  const Cluster c("het", 2, 1.0, {1.0, 0.5}, {0.0, 0.5, 0.5, 0.0});
  const testutil::FixedTimeModel model;
  const auto pi = make_instance(g, model, c);
  const double cbar = c.mean_comm_cost();
  EXPECT_DOUBLE_EQ(cbar, 0.5);
  const auto bl = pi->bottom_levels_avg();
  // wbar: a = 1.5, b = 3.0, c = 4.5.
  EXPECT_DOUBLE_EQ(bl[2], 4.5);
  EXPECT_DOUBLE_EQ(bl[1], 3.0 + 0.5 + 4.5);
  EXPECT_DOUBLE_EQ(bl[0], 1.5 + 0.5 + 8.0);
}

TEST(ProblemInstance, WarmIsIdempotentAndSharedAcrossThreads) {
  const Ptg g = irregular_corpus(30, 1, 13).front();
  const Cluster c = chti();
  const SyntheticModel model;
  const auto pi = make_instance(g, model, c);
  pi->warm();
  pi->warm();  // second call must be a no-op

  // Concurrent readers of the lazily-built blocks see one table.
  const double expected = pi->time(0, 1);
  std::vector<std::thread> readers;
  std::vector<double> seen(4, 0.0);
  for (std::size_t t = 0; t < seen.size(); ++t) {
    readers.emplace_back([&, t] {
      seen[t] = pi->time_table()[0] + pi->bottom_levels_seq()[0] -
                pi->bottom_levels_seq()[0];
    });
  }
  for (auto& th : readers) th.join();
  for (const double s : seen) EXPECT_DOUBLE_EQ(s, expected);
}

}  // namespace
}  // namespace ptgsched
