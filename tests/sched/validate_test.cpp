// Tests for the schedule validator and metrics: the validator must catch
// every class of invalid schedule.

#include "sched/validate.hpp"

#include <gtest/gtest.h>

#include "../common/test_graphs.hpp"
#include "sched/list_scheduler.hpp"

namespace ptgsched {
namespace {

using testutil::FixedTimeModel;
using testutil::make_instance;
using testutil::unit_cluster;

struct Fixture {
  Ptg g = testutil::chain3();
  Cluster c = unit_cluster(2);
  FixedTimeModel model;
  Allocation alloc{1, 1, 1};

  Schedule valid_schedule() {
    Schedule s("chain3", 2);
    s.add({0, 0.0, 1.0, {0}});
    s.add({1, 1.0, 3.0, {0}});
    s.add({2, 3.0, 6.0, {1}});
    return s;
  }
};

TEST(ValidateSchedule, AcceptsValid) {
  Fixture f;
  const Schedule s = f.valid_schedule();
  EXPECT_NO_THROW(validate_schedule(s, f.g, f.alloc, f.model, f.c));
}

TEST(ValidateSchedule, RejectsMissingTask) {
  Fixture f;
  Schedule s("chain3", 2);
  s.add({0, 0.0, 1.0, {0}});
  EXPECT_THROW(validate_schedule(s, f.g, f.alloc, f.model, f.c),
               ScheduleError);
}

TEST(ValidateSchedule, RejectsWrongAllocationSize) {
  Fixture f;
  Schedule s("chain3", 2);
  s.add({0, 0.0, 1.0, {0, 1}});  // allocation says 1 processor
  s.add({1, 1.0, 3.0, {0}});
  s.add({2, 3.0, 6.0, {1}});
  EXPECT_THROW(validate_schedule(s, f.g, f.alloc, f.model, f.c),
               ScheduleError);
}

TEST(ValidateSchedule, RejectsPrecedenceViolation) {
  Fixture f;
  Schedule s("chain3", 2);
  s.add({0, 0.0, 1.0, {0}});
  s.add({1, 0.5, 2.5, {1}});  // starts before predecessor finishes
  s.add({2, 2.5, 5.5, {1}});
  EXPECT_THROW(validate_schedule(s, f.g, f.alloc, f.model, f.c),
               ScheduleError);
}

TEST(ValidateSchedule, RejectsProcessorOverlap) {
  const Ptg g = testutil::two_chains();
  const Cluster c = unit_cluster(2);
  const FixedTimeModel model;
  const Allocation alloc{1, 1, 1, 1};
  Schedule s("twochains", 2);
  s.add({0, 0.0, 2.0, {0}});
  s.add({1, 2.0, 4.0, {0}});
  s.add({2, 1.0, 4.0, {0}});  // overlaps tasks 0 and 1 on processor 0
  s.add({3, 4.0, 7.0, {1}});
  EXPECT_THROW(validate_schedule(s, g, alloc, model, c), ScheduleError);
}

TEST(ValidateSchedule, RejectsWrongDuration) {
  Fixture f;
  Schedule s("chain3", 2);
  s.add({0, 0.0, 2.0, {0}});  // model says duration 1
  s.add({1, 2.0, 4.0, {0}});
  s.add({2, 4.0, 7.0, {1}});
  EXPECT_THROW(validate_schedule(s, f.g, f.alloc, f.model, f.c),
               ScheduleError);
}

TEST(ValidateSchedule, RejectsOutOfRangeProcessor) {
  Fixture f;
  Schedule s("chain3", 2);
  s.add({0, 0.0, 1.0, {5}});
  s.add({1, 1.0, 3.0, {0}});
  s.add({2, 3.0, 6.0, {1}});
  EXPECT_THROW(validate_schedule(s, f.g, f.alloc, f.model, f.c),
               ScheduleError);
}

TEST(ValidateSchedule, RejectsDuplicateProcessorInSet) {
  const Ptg g = testutil::chain3();
  const Cluster c = unit_cluster(4);
  const FixedTimeModel model;
  const Allocation alloc{2, 1, 1};
  Schedule s("chain3", 4);
  s.add({0, 0.0, 1.0, {1, 1}});
  s.add({1, 1.0, 3.0, {0}});
  s.add({2, 3.0, 6.0, {1}});
  EXPECT_THROW(validate_schedule(s, g, alloc, model, c), ScheduleError);
}

TEST(ScheduleContainer, RejectsDoublePlacement) {
  Schedule s("x", 2);
  s.add({0, 0.0, 1.0, {0}});
  EXPECT_THROW(s.add({0, 1.0, 2.0, {1}}), std::invalid_argument);
}

TEST(ScheduleContainer, RejectsBadInterval) {
  Schedule s("x", 2);
  EXPECT_THROW(s.add({0, 2.0, 1.0, {0}}), std::invalid_argument);
  EXPECT_THROW(s.add({0, -1.0, 1.0, {0}}), std::invalid_argument);
  EXPECT_THROW(s.add({0, 0.0, 1.0, {}}), std::invalid_argument);
  EXPECT_THROW(s.add({kInvalidTask, 0.0, 1.0, {0}}), std::invalid_argument);
}

TEST(ScheduleContainer, MakespanAndLookups) {
  Fixture f;
  const Schedule s = f.valid_schedule();
  EXPECT_DOUBLE_EQ(s.makespan(), 6.0);
  EXPECT_TRUE(s.has_placement(2));
  EXPECT_FALSE(s.has_placement(7));
  EXPECT_THROW((void)s.placement(7), std::out_of_range);
  EXPECT_DOUBLE_EQ(Schedule().makespan(), 0.0);
}

TEST(ScheduleContainer, JsonExportContainsEverything) {
  Fixture f;
  const Json doc = f.valid_schedule().to_json();
  EXPECT_EQ(doc.at("graph").as_string(), "chain3");
  EXPECT_EQ(doc.at("processors").as_int(), 2);
  EXPECT_DOUBLE_EQ(doc.at("makespan").as_double(), 6.0);
  EXPECT_EQ(doc.at("tasks").size(), 3u);
  EXPECT_EQ(doc.at("tasks").at(std::size_t{0}).at("processors").size(), 1u);
}

TEST(ScheduleContainer, JsonRoundTrip) {
  Fixture f;
  const Schedule original = f.valid_schedule();
  const Schedule back = Schedule::from_json(original.to_json());
  EXPECT_EQ(back.graph_name(), "chain3");
  EXPECT_EQ(back.num_processors(), 2);
  EXPECT_EQ(back.num_tasks(), 3u);
  EXPECT_DOUBLE_EQ(back.makespan(), original.makespan());
  for (TaskId v = 0; v < 3; ++v) {
    EXPECT_DOUBLE_EQ(back.placement(v).start, original.placement(v).start);
    EXPECT_EQ(back.placement(v).processors, original.placement(v).processors);
  }
  // The loaded schedule passes full validation too.
  EXPECT_NO_THROW(validate_schedule(back, f.g, f.alloc, f.model, f.c));
}

TEST(ScheduleContainer, FromJsonRejectsGarbage) {
  EXPECT_THROW((void)Schedule::from_json(Json::parse("{}")), JsonError);
  EXPECT_THROW((void)Schedule::from_json(Json::parse(
                   R"({"processors": 0, "tasks": []})")),
               std::invalid_argument);
  EXPECT_THROW(
      (void)Schedule::from_json(Json::parse(
          R"({"processors": 2, "tasks": [{"task": -1, "start": 0,
              "finish": 1, "processors": [0]}]})")),
      std::invalid_argument);
}

TEST(Metrics, ExactValuesOnChain) {
  Fixture f;
  const ScheduleMetrics m = compute_metrics(f.valid_schedule(), f.g);
  EXPECT_DOUBLE_EQ(m.makespan, 6.0);
  EXPECT_DOUBLE_EQ(m.total_work, 6.0);  // all single-processor
  EXPECT_DOUBLE_EQ(m.utilization, 6.0 / (2 * 6.0));
  EXPECT_DOUBLE_EQ(m.mean_allocation, 1.0);
  EXPECT_EQ(m.max_allocation, 1);
  EXPECT_DOUBLE_EQ(m.critical_path, 6.0);
}

TEST(Metrics, UtilizationPerfectWhenSaturated) {
  const Ptg g = testutil::two_chains();
  const Cluster c = unit_cluster(2);
  const FixedTimeModel model;
  ListScheduler sched(make_instance(g, model, c));
  // (2,2) on proc A and (3,3) on proc B -> makespan 6, work 10.
  const Schedule s = sched.build_schedule({1, 1, 1, 1});
  const ScheduleMetrics m = compute_metrics(s, g);
  EXPECT_NEAR(m.utilization, 10.0 / 12.0, 1e-12);
}

}  // namespace
}  // namespace ptgsched
