// Tests for the fault-injecting simulation engine: fault-free bit-identity
// with the list scheduler, crash/slowdown semantics with exact arithmetic,
// reactive rescheduling, outage handling, and determinism.

#include "sim/simulation.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "../common/test_graphs.hpp"
#include "daggen/corpus.hpp"
#include "heuristics/allocation_heuristic.hpp"
#include "model/execution_time.hpp"
#include "sim/reschedule_policy.hpp"

namespace ptgsched {
namespace {

using testutil::FixedTimeModel;
using testutil::make_instance;
using testutil::unit_cluster;

std::shared_ptr<const ProblemInstance> chain3_instance(int procs) {
  return ProblemInstance::create(
      std::make_shared<Ptg>(testutil::chain3()),
      std::make_shared<FixedTimeModel>(),
      std::make_shared<Cluster>(unit_cluster(procs)));
}

TEST(Simulation, FaultFreeReplayIsBitIdentical) {
  const Ptg g = irregular_corpus(40, 1, 5).front();
  const Cluster c = chti();
  const SyntheticModel model;
  const auto instance = make_instance(g, model, c);

  const Allocation alloc = make_heuristic("mcpa")->allocate(*instance);
  ListScheduler mapper(instance);
  const Schedule schedule = mapper.build_schedule(alloc);

  SimulationEngine engine(instance);
  RestartSurvivorsPolicy policy;
  const SimulationResult r =
      engine.run(schedule, alloc, FaultTrace(), policy);

  // Exact equality, not near-equality: epoch 0 is the schedule verbatim.
  EXPECT_EQ(r.metrics.degraded_makespan, schedule.makespan());
  EXPECT_EQ(r.metrics.ideal_makespan, schedule.makespan());
  EXPECT_DOUBLE_EQ(r.metrics.degradation_ratio(), 1.0);
  EXPECT_EQ(r.metrics.reschedules, 0u);
  EXPECT_EQ(r.metrics.tasks_killed, 0u);
  EXPECT_EQ(r.metrics.work_lost, 0.0);
  EXPECT_TRUE(r.metrics.completed);
  ASSERT_EQ(r.epochs.size(), 1u);
  for (TaskId v = 0; v < g.num_tasks(); ++v) {
    EXPECT_EQ(r.completion_times[v], schedule.placement(v).finish);
  }
}

TEST(Simulation, CrashKillsRunningTaskAndReschedules) {
  // chain3 (a=1, b=2, c=3 seconds) on two processors, one proc per task:
  // a on p0 [0,1], b on p1 [1,3], c [3,6]. Crash b's processor at t=2:
  // b loses 1 proc-second, the residual {b, c} restarts on the survivor
  // at the barrier (t=2): b [2,4], c [4,7].
  const auto instance = chain3_instance(2);
  const Allocation alloc = {1, 1, 1};
  ListScheduler mapper(instance);
  const Schedule schedule = mapper.build_schedule(alloc);
  ASSERT_EQ(schedule.makespan(), 6.0);
  const int b_proc = schedule.placement(1).processors.front();

  SimulationEngine engine(instance);
  RestartSurvivorsPolicy policy;
  const FaultTrace trace({{2.0, b_proc, FaultKind::kCrash, 1.0, 0.0}});
  const SimulationResult r = engine.run(schedule, alloc, trace, policy);

  EXPECT_TRUE(r.metrics.completed);
  EXPECT_EQ(r.metrics.crashes, 1u);
  EXPECT_EQ(r.metrics.tasks_killed, 1u);
  EXPECT_EQ(r.metrics.work_lost, 1.0);
  EXPECT_EQ(r.metrics.reschedules, 1u);
  EXPECT_EQ(r.metrics.degraded_makespan, 7.0);
  ASSERT_EQ(r.epochs.size(), 2u);
  EXPECT_EQ(r.epochs[1].start, 2.0);
  EXPECT_EQ(r.epochs[1].usable_processors, 1u);
  EXPECT_EQ(r.epochs[1].tasks, 2u);
  EXPECT_EQ(r.epochs[1].policy, "restart");
}

TEST(Simulation, CrashOfIdleProcessorKillsNothing) {
  // Crash the processor where only the *pending* task c would have run:
  // nothing is killed, b drains to its finish (t=3), and c is rescheduled
  // on the survivor — same makespan as the ideal schedule.
  const auto instance = chain3_instance(2);
  const Allocation alloc = {1, 1, 1};
  ListScheduler mapper(instance);
  const Schedule schedule = mapper.build_schedule(alloc);
  const int b_proc = schedule.placement(1).processors.front();
  const int other = 1 - b_proc;

  SimulationEngine engine(instance);
  RestartSurvivorsPolicy policy;
  const FaultTrace trace({{2.0, other, FaultKind::kCrash, 1.0, 0.0}});
  const SimulationResult r = engine.run(schedule, alloc, trace, policy);

  EXPECT_TRUE(r.metrics.completed);
  EXPECT_EQ(r.metrics.tasks_killed, 0u);
  EXPECT_EQ(r.metrics.work_lost, 0.0);
  EXPECT_EQ(r.metrics.reschedules, 1u);
  EXPECT_EQ(r.metrics.degraded_makespan, 6.0);
}

TEST(Simulation, SlowdownStretchesInFlightWorkAndRecovers) {
  // Single processor: a [0,1], b [1,3], c [3,6]. Slowdown at t=2 with
  // factor 2 stretches b's remaining second to two (finish 4); the
  // recovery at t=3 lands inside the drain window, so the processor is
  // usable again at the barrier and c runs [4,7].
  const auto instance = chain3_instance(1);
  const Allocation alloc = {1, 1, 1};
  ListScheduler mapper(instance);
  const Schedule schedule = mapper.build_schedule(alloc);
  ASSERT_EQ(schedule.makespan(), 6.0);

  SimulationEngine engine(instance);
  RestartSurvivorsPolicy policy;
  const FaultTrace trace({
      {2.0, 0, FaultKind::kSlowdown, 2.0, 1.0},
      {3.0, 0, FaultKind::kRecovery, 1.0, 0.0},
  });
  const SimulationResult r = engine.run(schedule, alloc, trace, policy);

  EXPECT_TRUE(r.metrics.completed);
  EXPECT_EQ(r.metrics.slowdowns, 1u);
  EXPECT_EQ(r.metrics.recoveries, 1u);
  EXPECT_EQ(r.metrics.tasks_killed, 0u);
  EXPECT_EQ(r.metrics.stretch_seconds, 1.0);
  EXPECT_EQ(r.metrics.reschedules, 1u);
  EXPECT_EQ(r.metrics.degraded_makespan, 7.0);
  EXPECT_EQ(r.completion_times[1], 4.0);
}

TEST(Simulation, IdlesThroughFullOutageUntilRecovery) {
  // Slowdown at t=0.5 (factor 2, recovery at 2.5) on the only processor:
  // a stretches to 1.5, then the cluster has zero usable processors until
  // the recovery — the residual {b, c} starts at t=2.5.
  const auto instance = chain3_instance(1);
  const Allocation alloc = {1, 1, 1};
  ListScheduler mapper(instance);
  const Schedule schedule = mapper.build_schedule(alloc);

  SimulationEngine engine(instance);
  RestartSurvivorsPolicy policy;
  const FaultTrace trace({
      {0.5, 0, FaultKind::kSlowdown, 2.0, 2.0},
      {2.5, 0, FaultKind::kRecovery, 1.0, 0.0},
  });
  const SimulationResult r = engine.run(schedule, alloc, trace, policy);

  EXPECT_TRUE(r.metrics.completed);
  EXPECT_EQ(r.metrics.recoveries, 1u);
  EXPECT_EQ(r.completion_times[0], 1.5);
  ASSERT_EQ(r.epochs.size(), 2u);
  EXPECT_EQ(r.epochs[1].start, 2.5);
  EXPECT_EQ(r.metrics.degraded_makespan, 7.5);
}

TEST(Simulation, AllProcessorsDeadEndsIncomplete) {
  const auto instance = chain3_instance(1);
  const Allocation alloc = {1, 1, 1};
  ListScheduler mapper(instance);
  const Schedule schedule = mapper.build_schedule(alloc);

  SimulationEngine engine(instance);
  RestartSurvivorsPolicy policy;
  const FaultTrace trace({{0.5, 0, FaultKind::kCrash, 1.0, 0.0}});
  const SimulationResult r = engine.run(schedule, alloc, trace, policy);

  EXPECT_FALSE(r.metrics.completed);
  EXPECT_TRUE(std::isinf(r.metrics.degraded_makespan));
  EXPECT_TRUE(std::isinf(r.metrics.degradation_ratio()));
  EXPECT_EQ(r.metrics.tasks_killed, 1u);
  EXPECT_EQ(r.metrics.work_lost, 0.5);
}

TEST(Simulation, RescheduleLatencyDelaysTheNextEpoch) {
  const auto instance = chain3_instance(2);
  const Allocation alloc = {1, 1, 1};
  ListScheduler mapper(instance);
  const Schedule schedule = mapper.build_schedule(alloc);
  const int b_proc = schedule.placement(1).processors.front();

  SimulationConfig cfg;
  cfg.reschedule_latency_seconds = 0.5;
  SimulationEngine engine(instance, cfg);
  RestartSurvivorsPolicy policy;
  const FaultTrace trace({{2.0, b_proc, FaultKind::kCrash, 1.0, 0.0}});
  const SimulationResult r = engine.run(schedule, alloc, trace, policy);

  ASSERT_EQ(r.epochs.size(), 2u);
  EXPECT_EQ(r.epochs[1].start, 2.5);
  EXPECT_EQ(r.metrics.degraded_makespan, 7.5);
}

TEST(Simulation, DeterministicAcrossRepeatedRuns) {
  const Ptg g = irregular_corpus(30, 1, 9).front();
  const Cluster c = unit_cluster(6);
  const FixedTimeModel model;
  const auto instance = make_instance(g, model, c);
  const Allocation alloc = make_heuristic("mcpa")->allocate(*instance);

  FaultModelConfig fcfg;
  fcfg.crash_rate = 1.0;
  fcfg.slowdown_rate = 2.0;
  ListScheduler mapper(instance);
  const Schedule schedule = mapper.build_schedule(alloc);
  const FaultTrace trace =
      generate_fault_trace(fcfg, c, schedule.makespan(), 31);

  SimulationConfig cfg;
  cfg.seed = 17;
  const auto run_once = [&] {
    SimulationEngine engine(instance, cfg);
    HeuristicReschedulePolicy policy("mcpa");
    SimulationResult r = engine.run(schedule, alloc, trace, policy);
    r.metrics.policy_wall_seconds = 0.0;  // wall telemetry, not simulated
    return r.to_json().dump(0);
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Simulation, SimulateAllocationMatchesExplicitScheduleRun) {
  const auto instance = chain3_instance(2);
  const Allocation alloc = {1, 1, 1};
  SimulationEngine engine(instance);
  RestartSurvivorsPolicy policy;
  const SimulationResult r =
      engine.simulate_allocation(alloc, FaultTrace(), policy);
  ListScheduler mapper(instance);
  EXPECT_EQ(r.metrics.degraded_makespan, mapper.makespan(alloc));
}

TEST(Simulation, RejectsMalformedInputs) {
  const auto instance = chain3_instance(2);
  const Allocation alloc = {1, 1, 1};
  ListScheduler mapper(instance);
  const Schedule schedule = mapper.build_schedule(alloc);
  SimulationEngine engine(instance);
  RestartSurvivorsPolicy policy;

  // Trace naming a processor outside the cluster.
  const FaultTrace foreign({{1.0, 7, FaultKind::kCrash, 1.0, 0.0}});
  EXPECT_THROW((void)engine.run(schedule, alloc, foreign, policy),
               std::invalid_argument);
  // Allocation wider than the cluster.
  EXPECT_THROW((void)engine.run(schedule, {3, 1, 1}, FaultTrace(), policy),
               GraphError);
  // Null instance.
  EXPECT_THROW(SimulationEngine(nullptr), std::invalid_argument);
}

TEST(ResidualProblem, PrunesCompletedTasksAndRemapsIds) {
  const Ptg g = testutil::diamond();  // s -> {l, r} -> t
  const Cluster c = unit_cluster(4);
  const FixedTimeModel model;
  const auto instance = make_instance(g, model, c);

  const std::vector<bool> completed = {true, false, false, false};
  const ResidualProblem residual =
      instance->residual(completed, std::make_shared<Cluster>(unit_cluster(2)));
  ASSERT_NE(residual.instance, nullptr);
  EXPECT_EQ(residual.instance->num_tasks(), 3u);
  EXPECT_EQ(residual.instance->num_processors(), 2);
  ASSERT_EQ(residual.to_base.size(), 3u);
  // Edges out of the completed source are satisfied dependencies; only
  // l -> t and r -> t survive.
  EXPECT_EQ(residual.instance->graph().num_edges(), 2u);
  for (std::size_t r = 0; r < residual.to_base.size(); ++r) {
    EXPECT_EQ(residual.from_base[residual.to_base[r]],
              static_cast<TaskId>(r));
  }
  EXPECT_EQ(residual.from_base[0], kInvalidTask);

  // All tasks completed: no residual instance at all.
  const ResidualProblem empty = instance->residual(
      {true, true, true, true}, std::make_shared<Cluster>(unit_cluster(2)));
  EXPECT_EQ(empty.instance, nullptr);
  EXPECT_TRUE(empty.to_base.empty());
}

TEST(Simulation, EmtsPolicySmoke) {
  // The budgeted EMTS policy on a tiny residual problem: just verify it
  // produces a valid completed run and at least one reschedule.
  const auto instance = chain3_instance(2);
  const Allocation alloc = {1, 1, 1};
  ListScheduler mapper(instance);
  const Schedule schedule = mapper.build_schedule(alloc);
  const int b_proc = schedule.placement(1).processors.front();

  SimulationConfig cfg;
  cfg.seed = 5;
  SimulationEngine engine(instance, cfg);
  EmtsConfig ecfg = emts5_config();
  ecfg.threads = 1;
  EmtsReschedulePolicy policy(ecfg);
  const FaultTrace trace({{2.0, b_proc, FaultKind::kCrash, 1.0, 0.0}});
  const SimulationResult r = engine.run(schedule, alloc, trace, policy);

  EXPECT_TRUE(r.metrics.completed);
  EXPECT_EQ(r.metrics.reschedules, 1u);
  EXPECT_GT(r.metrics.degraded_makespan, 0.0);
  EXPECT_GE(r.metrics.degraded_makespan, r.metrics.ideal_makespan);
}

TEST(ReschedulePolicy, FactoryNamesAndErrors) {
  for (const std::string& name : reschedule_policy_names()) {
    const auto policy = make_reschedule_policy(name);
    EXPECT_EQ(policy->name(), name);
  }
  EXPECT_THROW((void)make_reschedule_policy("no-such-policy"),
               std::invalid_argument);
}

}  // namespace
}  // namespace ptgsched
