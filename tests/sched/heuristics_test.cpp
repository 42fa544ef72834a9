// Tests for the allocation heuristics: CPA family, Delta-critical seed,
// and the OneEach baseline.

#include <gtest/gtest.h>

#include "../common/test_graphs.hpp"
#include "daggen/corpus.hpp"
#include "heuristics/allocation_heuristic.hpp"
#include "heuristics/cpa.hpp"
#include "heuristics/delta_critical.hpp"
#include "ptg/algorithms.hpp"
#include "sched/list_scheduler.hpp"

namespace ptgsched {
namespace {

using testutil::make_instance;
using testutil::unit_cluster;

TEST(Factory, CreatesEveryHeuristic) {
  for (const char* name :
       {"one", "cpa", "hcpa", "mcpa", "mcpa2", "delta", "heft", "peft"}) {
    const auto h = make_heuristic(name);
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->name(), name);
  }
  EXPECT_THROW((void)make_heuristic("unknown"), std::invalid_argument);
}

TEST(ListBaselines, DegradeToAllOnesOnHomogeneousClusters) {
  // On a homogeneous cluster the EFT baselines have no speed axis to
  // exploit; they return the width-one genome (the moldable "one"
  // baseline) instead of pretending the lanes differ.
  const Ptg g = testutil::diamond();
  const Cluster c = unit_cluster(8);
  const AmdahlModel model;
  const auto pi = make_instance(g, model, c);
  EXPECT_EQ(make_heuristic("heft")->allocate(*pi),
            (Allocation{1, 1, 1, 1}));
  EXPECT_EQ(make_heuristic("peft")->allocate(*pi),
            (Allocation{1, 1, 1, 1}));
}

TEST(ListBaselines, ValidAllocationsOnHeterogeneousCorpus) {
  const auto graphs = irregular_corpus(45, 3, 33);
  const SyntheticModel model;
  for (const Cluster& c : {heterogeneous_variant(chti()),
                           heterogeneous_variant(chti(), 0.3)}) {
    for (const auto& g : graphs) {
      const auto pi = make_instance(g, model, c);
      for (const char* name : {"heft", "peft"}) {
        const Allocation alloc = make_heuristic(name)->allocate(*pi);
        EXPECT_NO_THROW(validate_allocation(alloc, g, c)) << name;
        // Deterministic: same instance, same mapping.
        EXPECT_EQ(alloc, make_heuristic(name)->allocate(*pi)) << name;
      }
    }
  }
}

TEST(ListBaselines, PreferFastProcessorsOnSteepSpeedGradients) {
  // One processor 4x faster than the other three: a chain must live
  // entirely on it under both baselines (any hop costs time and no
  // parallelism is available to win it back).
  const Ptg g = testutil::chain3();
  const Cluster c("steep", 4, 1.0, {0.25, 0.25, 1.0, 0.25});
  const testutil::FixedTimeModel model;
  const auto pi = make_instance(g, model, c);
  EXPECT_EQ(make_heuristic("heft")->allocate(*pi), (Allocation{3, 3, 3}));
  EXPECT_EQ(make_heuristic("peft")->allocate(*pi), (Allocation{3, 3, 3}));
}

TEST(Factory, PublishesNamesAndExplainsUnknownOnes) {
  const std::vector<std::string>& names = heuristic_names();
  ASSERT_FALSE(names.empty());
  for (const std::string& name : names) {
    EXPECT_EQ(make_heuristic(name)->name(), name);
  }
  try {
    (void)make_heuristic("cpa2");
    FAIL() << "make_heuristic accepted an unknown name";
  } catch (const std::invalid_argument& e) {
    // The message must identify the bad name and list every valid one, so
    // a CLI typo is diagnosable without reading the source.
    const std::string what = e.what();
    EXPECT_NE(what.find("cpa2"), std::string::npos) << what;
    for (const std::string& name : names) {
      EXPECT_NE(what.find('"' + name + '"'), std::string::npos) << what;
    }
  }
}

TEST(OneEach, AllOnes) {
  const Ptg g = testutil::diamond();
  const Cluster c = unit_cluster(8);
  const AmdahlModel model;
  EXPECT_EQ(OneEachAllocation().allocate(*make_instance(g, model, c)),
            (Allocation{1, 1, 1, 1}));
}

TEST(Cpa, AllocationsAlwaysValid) {
  const auto graphs = irregular_corpus(50, 4, 31);
  const Cluster c = platform_by_name("chti");
  const AmdahlModel model;
  for (const auto& g : graphs) {
    const Allocation alloc =
        CpaAllocation().allocate(*make_instance(g, model, c));
    EXPECT_NO_THROW(validate_allocation(alloc, g, c));
  }
}

TEST(Cpa, StopsWhenCpMeetsArea) {
  // After CPA, T_CP <= T_A must hold OR no critical task can grow further.
  const auto graphs = layered_corpus(50, 4, 32);
  const Cluster c = platform_by_name("chti");
  const AmdahlModel model;
  for (const auto& g : graphs) {
    const Allocation alloc =
        CpaAllocation().allocate(*make_instance(g, model, c));
    const double t_cp = allocation_critical_path(g, alloc, model, c);
    const double t_a = average_area(g, alloc, model, c);
    // Amdahl gains are always positive, so CPA only stops at the balance
    // point (or when every critical task already holds all P processors).
    bool saturated = false;
    for (const int s : alloc) saturated |= (s == c.num_processors());
    EXPECT_TRUE(t_cp <= t_a + 1e-9 || saturated)
        << g.name() << " t_cp=" << t_cp << " t_a=" << t_a;
  }
}

TEST(Cpa, GrowsCriticalChainAllocations) {
  // A pure chain is all critical path: CPA must allocate more than one
  // processor somewhere under Amdahl.
  const Ptg g = testutil::chain3();
  const Cluster c = unit_cluster(16);
  const AmdahlModel model;
  const Allocation alloc =
      CpaAllocation().allocate(*make_instance(g, model, c));
  int total = 0;
  for (const int s : alloc) total += s;
  EXPECT_GT(total, 3);
}

TEST(Cpa, Model2StopsEarly) {
  // Section V-B: under the synthetic model the allocation procedure stops
  // with small allocations (around 4-8) instead of growing without bound.
  const auto graphs = irregular_corpus(100, 3, 33);
  const Cluster c = platform_by_name("grelon");
  const SyntheticModel model;
  for (const auto& g : graphs) {
    const Allocation alloc =
        CpaAllocation().allocate(*make_instance(g, model, c));
    for (const int s : alloc) {
      EXPECT_LE(s, 16) << "Model 2 should stall CPA allocations early";
    }
  }
}

TEST(Hcpa, EquivalentToCpaOnHomogeneousCluster) {
  // DESIGN.md: on a single homogeneous cluster HCPA reduces to CPA.
  const auto graphs = irregular_corpus(50, 3, 34);
  const Cluster c = platform_by_name("grelon");
  const AmdahlModel model;
  for (const auto& g : graphs) {
    const auto pi = make_instance(g, model, c);
    EXPECT_EQ(HcpaAllocation().allocate(*pi),
              CpaAllocation().allocate(*pi));
  }
}

TEST(Mcpa, RespectsPerLevelBound) {
  const auto graphs = layered_corpus(100, 6, 35);
  const Cluster chti_c = platform_by_name("chti");
  const AmdahlModel model;
  for (const auto& g : graphs) {
    const Allocation alloc =
        McpaAllocation().allocate(*make_instance(g, model, chti_c));
    const auto levels = tasks_by_level(g);
    for (const auto& level : levels) {
      long long used = 0;
      for (const TaskId v : level) used += alloc[v];
      // MCPA grants a processor only while the level sum is < P, so the
      // sum can exceed P by at most the width of the level minus one...
      // in fact by construction each grant keeps the pre-grant sum < P,
      // hence sum <= P - 1 + 1 = P whenever the level's own width <= P.
      if (level.size() <= static_cast<std::size_t>(chti_c.num_processors())) {
        EXPECT_LE(used, chti_c.num_processors()) << g.name();
      }
    }
  }
}

TEST(Mcpa, LevelBoundActuallyBinds) {
  // CPA has no per-level bound and over-allocates wide levels on small
  // clusters; MCPA must differ from CPA on at least some layered graphs,
  // and whenever they differ, CPA must be the one violating the level
  // bound MCPA enforces.
  const auto graphs = layered_corpus(50, 8, 36);
  const Cluster c = platform_by_name("chti");
  const AmdahlModel model;
  bool any_difference = false;
  for (const auto& g : graphs) {
    const auto pi = make_instance(g, model, c);
    const Allocation cpa = CpaAllocation().allocate(*pi);
    const Allocation mcpa = McpaAllocation().allocate(*pi);
    if (cpa == mcpa) continue;
    any_difference = true;
    bool cpa_violates = false;
    for (const auto& level : tasks_by_level(g)) {
      long long used = 0;
      for (const TaskId v : level) used += cpa[v];
      if (used > c.num_processors() &&
          level.size() <= static_cast<std::size_t>(c.num_processors())) {
        cpa_violates = true;
      }
    }
    EXPECT_TRUE(cpa_violates) << g.name();
  }
  EXPECT_TRUE(any_difference);
}

TEST(Mcpa2, AtLeastAsWideAsMcpa) {
  const auto graphs = layered_corpus(50, 4, 37);
  const Cluster c = platform_by_name("chti");
  const AmdahlModel model;
  for (const auto& g : graphs) {
    const auto pi = make_instance(g, model, c);
    const Allocation mcpa = McpaAllocation().allocate(*pi);
    const Allocation mcpa2 = Mcpa2Allocation().allocate(*pi);
    for (TaskId v = 0; v < g.num_tasks(); ++v) {
      EXPECT_GE(mcpa2[v], mcpa[v]) << g.name() << " task " << v;
    }
  }
}

TEST(Mcpa2, PostPassOnlyWhenItShortens) {
  // Under the synthetic model growing 4 -> 5 lengthens tasks, so the post
  // pass must not push allocations onto odd penalized sizes blindly: the
  // resulting allocation must never be slower per task than MCPA's.
  const auto graphs = layered_corpus(50, 3, 38);
  const Cluster c = platform_by_name("grelon");
  const SyntheticModel model;
  for (const auto& g : graphs) {
    const auto pi = make_instance(g, model, c);
    const Allocation mcpa = McpaAllocation().allocate(*pi);
    const Allocation mcpa2 = Mcpa2Allocation().allocate(*pi);
    for (TaskId v = 0; v < g.num_tasks(); ++v) {
      EXPECT_LE(model.time(g.task(v), mcpa2[v], c),
                model.time(g.task(v), mcpa[v], c) + 1e-12);
    }
  }
}

TEST(DeltaCritical, CriticalTasksShareProcessors) {
  // Diamond with unit model: left branch (flops 4) is critical at level 1,
  // right (flops 2) is not when delta = 0.9.
  const Ptg g = testutil::diamond();
  const Cluster c = unit_cluster(12);
  const testutil::FixedTimeModel model;
  const Allocation alloc =
      DeltaCriticalAllocation(0.9).allocate(*make_instance(g, model, c));
  EXPECT_EQ(alloc[0], 12);  // sole source: whole machine
  EXPECT_EQ(alloc[1], 12);  // critical task of level 1
  EXPECT_EQ(alloc[2], 1);   // non-critical
  EXPECT_EQ(alloc[3], 12);  // sole sink
}

TEST(DeltaCritical, DeltaZeroMakesEveryoneCritical) {
  const Ptg g = testutil::diamond();
  const Cluster c = unit_cluster(12);
  const testutil::FixedTimeModel model;
  const Allocation alloc =
      DeltaCriticalAllocation(0.0).allocate(*make_instance(g, model, c));
  // Level 1 has two critical tasks -> P / 2 each.
  EXPECT_EQ(alloc[1], 6);
  EXPECT_EQ(alloc[2], 6);
}

TEST(DeltaCritical, ManyCriticalTasksFloorToOne) {
  // 30 equal workers on 12 processors: floor(12/30) = 0 -> clamped to 1.
  const Ptg g = testutil::fork_join(30);
  const Cluster c = unit_cluster(12);
  const testutil::FixedTimeModel model;
  const Allocation alloc =
      DeltaCriticalAllocation(0.9).allocate(*make_instance(g, model, c));
  for (TaskId v = 1; v <= 30; ++v) EXPECT_EQ(alloc[v], 1);
}

TEST(DeltaCritical, RejectsBadDelta) {
  EXPECT_THROW(DeltaCriticalAllocation(-0.1), std::invalid_argument);
  EXPECT_THROW(DeltaCriticalAllocation(1.1), std::invalid_argument);
}

TEST(DeltaCritical, AllocationsValidOnCorpus) {
  const auto graphs = irregular_corpus(50, 4, 39);
  const Cluster c = platform_by_name("grelon");
  const SyntheticModel model;
  const DeltaCriticalAllocation h(0.9);
  for (const auto& g : graphs) {
    EXPECT_NO_THROW(
        validate_allocation(h.allocate(*make_instance(g, model, c)), g, c));
  }
}

TEST(Heuristics, MappedSchedulesBeatSequentialOnParallelGraphs) {
  // Sanity: on a wide graph with scalable tasks, every CPA-family
  // allocation mapped with the list scheduler beats the 1-processor-per-
  // task schedule on makespan... except OneEach itself.
  const auto graphs = layered_corpus(100, 2, 40);
  const Cluster c = platform_by_name("grelon");
  const AmdahlModel model;
  for (const auto& g : graphs) {
    const auto pi = make_instance(g, model, c);
    ListScheduler sched(pi);
    const double seq = sched.makespan(OneEachAllocation().allocate(*pi));
    for (const char* name : {"cpa", "mcpa", "mcpa2", "delta"}) {
      const double m =
          sched.makespan(make_heuristic(name)->allocate(*pi));
      EXPECT_LE(m, seq * 1.05) << name << " on " << g.name();
    }
  }
}

}  // namespace
}  // namespace ptgsched
