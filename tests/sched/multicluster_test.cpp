// Tests for the multi-cluster platform, mapping, and HCPA pipeline.

#include <gtest/gtest.h>

#include "../common/test_graphs.hpp"
#include "daggen/corpus.hpp"
#include "heuristics/cpa.hpp"
#include "heuristics/hcpa_multicluster.hpp"
#include "platform/multi_cluster.hpp"
#include "sched/list_scheduler.hpp"
#include "sched/multi_cluster_scheduler.hpp"

namespace ptgsched {
namespace {

using testutil::FixedTimeModel;
using testutil::make_instance;
using testutil::LinearSpeedupModel;

TEST(MultiClusterPlatform, GlobalProcessorNumbering) {
  const MultiClusterPlatform p = chti_grelon();
  EXPECT_EQ(p.num_clusters(), 2u);
  EXPECT_EQ(p.total_processors(), 140);
  EXPECT_EQ(p.first_processor(0), 0);
  EXPECT_EQ(p.first_processor(1), 20);
  EXPECT_EQ(p.cluster_of(0), 0u);
  EXPECT_EQ(p.cluster_of(19), 0u);
  EXPECT_EQ(p.cluster_of(20), 1u);
  EXPECT_EQ(p.cluster_of(139), 1u);
  EXPECT_THROW((void)p.cluster_of(140), PlatformError);
  EXPECT_THROW((void)p.cluster_of(-1), PlatformError);
  EXPECT_THROW((void)p.cluster(2), PlatformError);
}

TEST(MultiClusterPlatform, AggregateSpeedAndReference) {
  const MultiClusterPlatform p = chti_grelon();
  const double total = 20 * 4.3 + 120 * 3.1;
  EXPECT_NEAR(p.total_gflops(), total, 1e-9);
  const Cluster ref = p.reference_cluster();
  EXPECT_EQ(ref.num_processors(), 140);
  EXPECT_NEAR(ref.gflops(), total / 140.0, 1e-12);
}

TEST(MultiClusterPlatform, RejectsEmptyAndRoundTripsJson) {
  EXPECT_THROW(MultiClusterPlatform({}), PlatformError);
  const MultiClusterPlatform p = chti_grelon();
  const MultiClusterPlatform back =
      MultiClusterPlatform::from_json(p.to_json());
  EXPECT_EQ(back.total_processors(), 140);
  EXPECT_EQ(back.cluster(0).name(), "chti");
}

/// The owned problems McHcpa and map_mc_allocation read: one instance per
/// cluster of `p` and one on its reference cluster, all over one shared
/// copy of `g`.
struct McProblem {
  std::shared_ptr<const ProblemInstance> reference;
  std::vector<std::shared_ptr<const ProblemInstance>> clusters;
};

McProblem mc_problem(const Ptg& g,
                     const std::shared_ptr<const ExecutionTimeModel>& model,
                     const MultiClusterPlatform& p) {
  const auto graph = std::make_shared<const Ptg>(g);
  McProblem out;
  out.reference = ProblemInstance::create(
      graph, model, std::make_shared<const Cluster>(p.reference_cluster()));
  for (std::size_t k = 0; k < p.num_clusters(); ++k) {
    out.clusters.push_back(ProblemInstance::create(
        graph, model, std::make_shared<const Cluster>(p.cluster(k))));
  }
  return out;
}

McAllocation all_ones(const Ptg& g, const MultiClusterPlatform& p) {
  McAllocation a;
  a.sizes.assign(g.num_tasks(), std::vector<int>(p.num_clusters(), 1));
  return a;
}

TEST(McMapping, ValidatesAllocations) {
  const Ptg g = testutil::chain3();
  const MultiClusterPlatform p({Cluster("a", 2, 1.0), Cluster("b", 4, 2.0)});
  McAllocation bad = all_ones(g, p);
  bad.sizes[1][0] = 3;  // cluster a only has 2 processors
  EXPECT_THROW(validate_mc_allocation(bad, g, p), GraphError);
  bad = all_ones(g, p);
  bad.sizes.pop_back();
  EXPECT_THROW(validate_mc_allocation(bad, g, p), GraphError);
  EXPECT_NO_THROW(validate_mc_allocation(all_ones(g, p), g, p));
}

TEST(McMapping, PrefersFasterCluster) {
  // Two single-processor clusters, one 10x faster: every independent task
  // should land on the fast one unless it is busy.
  const Ptg g = testutil::two_chains();
  const MultiClusterPlatform p(
      {Cluster("slow", 1, 1e-9), Cluster("fast", 1, 1e-8)});
  const auto model = std::make_shared<const AmdahlModel>();
  std::vector<double> priority(g.num_tasks(), 1.0);
  const Schedule s = map_mc_allocation(
      all_ones(g, p), mc_problem(g, model, p).clusters, priority);
  validate_mc_schedule(s, g, all_ones(g, p), *model, p);
  // The head of the longer chain goes to the fast cluster (processor 1).
  EXPECT_EQ(s.placement(2).processors.front(), 1);
}

TEST(McMapping, UsesBothClustersUnderLoad) {
  const Ptg g = testutil::fork_join(8);
  const MultiClusterPlatform p(
      {Cluster("a", 2, 1e-9), Cluster("b", 2, 1e-9)});
  const auto model = std::make_shared<const FixedTimeModel>();
  std::vector<double> priority(g.num_tasks(), 1.0);
  const McAllocation alloc = all_ones(g, p);
  const Schedule s =
      map_mc_allocation(alloc, mc_problem(g, model, p).clusters, priority);
  validate_mc_schedule(s, g, alloc, *model, p);
  bool used_a = false;
  bool used_b = false;
  for (const PlacedTask& t : s.placed()) {
    (p.cluster_of(t.processors.front()) == 0 ? used_a : used_b) = true;
  }
  EXPECT_TRUE(used_a);
  EXPECT_TRUE(used_b);
}

TEST(McMapping, SingleClusterDegeneratesToListScheduler) {
  // On a platform with one cluster the multi-cluster mapping must equal
  // the single-cluster list scheduler (same policy, same priorities).
  const auto graphs = irregular_corpus(40, 3, 101);
  const Cluster c = chti();
  const MultiClusterPlatform p({c});
  const auto model = std::make_shared<const SyntheticModel>();
  for (const auto& g : graphs) {
    const McProblem problem = mc_problem(g, model, p);
    const Allocation alloc = CpaAllocation().allocate(*problem.clusters[0]);
    McAllocation mc;
    mc.sizes.resize(g.num_tasks());
    std::vector<double> priority(g.num_tasks());
    for (TaskId v = 0; v < g.num_tasks(); ++v) {
      mc.sizes[v] = {alloc[v]};
      priority[v] = model->time(g.task(v), alloc[v], c);
    }
    ListScheduler single(problem.clusters[0]);
    const Schedule sm = map_mc_allocation(mc, problem.clusters, priority);
    EXPECT_DOUBLE_EQ(sm.makespan(), single.makespan(alloc)) << g.name();
  }
}

TEST(McHcpa, TranslationMatchesReferenceTimes) {
  Rng rng(5);
  const Ptg g = make_fft_ptg(8, rng);
  const MultiClusterPlatform p = chti_grelon();
  const auto model = std::make_shared<const AmdahlModel>();
  const McProblem problem = mc_problem(g, model, p);
  const Allocation ref_alloc = CpaAllocation().allocate(*problem.reference);
  const McAllocation mc =
      McHcpa::translate(ref_alloc, *problem.reference, problem.clusters);
  const Cluster ref = p.reference_cluster();
  for (TaskId v = 0; v < g.num_tasks(); ++v) {
    const double ref_time = model->time(g.task(v), ref_alloc[v], ref);
    for (std::size_t k = 0; k < p.num_clusters(); ++k) {
      const int chosen = mc.sizes[v][k];
      const double t = model->time(g.task(v), chosen, p.cluster(k));
      // Chosen is minimal: it either matches the reference time, or it is
      // the whole cluster (no allocation was fast enough).
      if (t <= ref_time && chosen > 1) {
        EXPECT_GT(model->time(g.task(v), chosen - 1, p.cluster(k)), ref_time)
            << "task " << v << " cluster " << k;
      }
      if (t > ref_time) {
        EXPECT_EQ(chosen, p.cluster(k).num_processors());
      }
    }
  }
}

TEST(McHcpa, FullPipelineProducesValidSchedules) {
  const auto graphs = irregular_corpus(50, 4, 102);
  const MultiClusterPlatform p = chti_grelon();
  const McHcpa hcpa;
  for (const char* model_name : {"model1", "model2"}) {
    const auto model = make_model(model_name);
    for (const auto& g : graphs) {
      const McProblem problem = mc_problem(g, model, p);
      const McHcpaResult r =
          hcpa.schedule(*problem.reference, problem.clusters);
      EXPECT_NO_THROW(
          validate_mc_schedule(r.schedule, g, r.allocation, *model, p))
          << g.name() << " " << model_name;
      EXPECT_GT(r.schedule.makespan(), 0.0);
    }
  }
}

TEST(McHcpa, BeatsWorseSingleClusterOption) {
  // Scheduling on chti+grelon can use grelon alone; the multi-cluster
  // schedule should never be much worse than HCPA restricted to the
  // slower small cluster.
  Rng rng(7);
  const Ptg g = make_fft_ptg(16, rng);
  const auto model = std::make_shared<const AmdahlModel>();
  const McProblem both = mc_problem(g, model, chti_grelon());
  const McHcpaResult combined =
      McHcpa().schedule(*both.reference, both.clusters);

  const auto small = make_instance(g, model, chti());
  const Allocation alloc = CpaAllocation().allocate(*small);
  ListScheduler mapper(small);
  EXPECT_LE(combined.schedule.makespan(),
            mapper.makespan(alloc) * 1.05);
}

}  // namespace
}  // namespace ptgsched
