// Cross-module integration tests: full pipeline from generated workloads
// through heuristics, EMTS, mapping, validation, and serialization.

#include <gtest/gtest.h>

#include <filesystem>

#include "../common/test_graphs.hpp"
#include "daggen/corpus.hpp"
#include "emts/emts.hpp"
#include "heuristics/allocation_heuristic.hpp"
#include "ptg/io.hpp"
#include "sched/gantt.hpp"
#include "sched/list_scheduler.hpp"
#include "sched/validate.hpp"

namespace ptgsched {
namespace {

using testutil::make_instance;

TEST(Integration, FullPipelineOnEveryWorkloadClass) {
  const Cluster c = platform_by_name("chti");
  const auto model = make_model("model2");
  EmtsConfig cfg = emts5_config();
  cfg.seed = 99;
  for (const std::string cls : {"fft", "strassen", "layered", "irregular"}) {
    const auto graphs = corpus_by_name(cls, 20, 2, 60);
    for (const auto& g : graphs) {
      const EmtsResult r = Emts(cfg).schedule(make_instance(g, model, c));
      EXPECT_NO_THROW(
          validate_schedule(r.schedule, g, r.best_allocation, *model, c))
          << cls << " " << g.name();
      EXPECT_GT(r.makespan, 0.0);
    }
  }
}

TEST(Integration, SerializedGraphSchedulesIdentically) {
  // Save -> load -> schedule must reproduce the identical makespan.
  const auto graphs = irregular_corpus(40, 2, 61);
  const Cluster c = platform_by_name("grelon");
  const auto model = make_model("model1");
  const auto path =
      (std::filesystem::temp_directory_path() / "ptgsched_integ.json")
          .string();
  for (const auto& g : graphs) {
    save_ptg(g, path);
    const Ptg loaded = load_ptg(path);
    EmtsConfig cfg = emts5_config();
    cfg.seed = 3;
    const double m1 = Emts(cfg).schedule(make_instance(g, model, c)).makespan;
    const double m2 =
        Emts(cfg).schedule(make_instance(loaded, model, c)).makespan;
    EXPECT_DOUBLE_EQ(m1, m2);
  }
  std::filesystem::remove(path);
}

TEST(Integration, AllHeuristicsComposableWithBothMappings) {
  const auto graphs = layered_corpus(50, 2, 62);
  const Cluster c = platform_by_name("chti");
  const auto model = make_model("model2");
  for (const auto& g : graphs) {
    for (const char* h : {"one", "cpa", "hcpa", "mcpa", "mcpa2", "delta"}) {
      const auto pi = make_instance(g, model, c);
      const Allocation alloc = make_heuristic(h)->allocate(*pi);
      for (const auto policy : {ProcessorSelection::EarliestAvailable,
                                ProcessorSelection::BestFit}) {
        const Schedule s =
            ListScheduler(pi, {policy}).build_schedule(alloc);
        EXPECT_NO_THROW(validate_schedule(s, g, alloc, *model, c))
            << h << " " << g.name();
      }
    }
  }
}

TEST(Integration, GanttOutputsForEmtsSchedule) {
  Rng rng(5);
  const Ptg g = make_fft_ptg(8, rng);
  const Cluster c = platform_by_name("chti");
  const auto model = make_model("model2");
  EmtsConfig cfg = emts5_config();
  cfg.seed = 5;
  const EmtsResult r = Emts(cfg).schedule(make_instance(g, model, c));
  const std::string ascii = gantt_ascii(r.schedule);
  EXPECT_NE(ascii.find("p000"), std::string::npos);
  const std::string svg = gantt_svg(r.schedule, g);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
  const Json doc = r.schedule.to_json();
  EXPECT_EQ(doc.at("tasks").size(), g.num_tasks());
}

TEST(Integration, ConvergenceHistoryIsMonotoneUnderPlusSelection) {
  const auto graphs = irregular_corpus(60, 3, 63);
  const Cluster c = platform_by_name("grelon");
  const auto model = make_model("model2");
  EmtsConfig cfg = emts10_config();
  cfg.seed = 17;
  for (const auto& g : graphs) {
    const EmtsResult r = Emts(cfg).schedule(make_instance(g, model, c));
    double prev = std::numeric_limits<double>::infinity();
    for (const auto& gs : r.es.history) {
      EXPECT_LE(gs.best, prev + 1e-12) << g.name();
      prev = gs.best;
    }
    EXPECT_DOUBLE_EQ(prev, r.makespan);
  }
}

TEST(Integration, LargerClusterNeverSlowerForEmts) {
  // Scheduling the same PTG on Grelon (120 procs) can never yield a longer
  // makespan than on a hypothetical same-speed 20-node cluster.
  Rng rng(6);
  const Ptg g = make_fft_ptg(16, rng);
  const Cluster small("small", 20, 3.1);
  const Cluster large("large", 120, 3.1);
  const auto model = make_model("model1");
  EmtsConfig cfg = emts5_config();
  cfg.seed = 21;
  const double m_small =
      Emts(cfg).schedule(make_instance(g, model, small)).makespan;
  const double m_large =
      Emts(cfg).schedule(make_instance(g, model, large)).makespan;
  EXPECT_LE(m_large, m_small * 1.001);
}

TEST(Integration, SequentialLowerBoundRespected) {
  // No schedule can beat total_work / (P * speed) or the critical path of
  // the best single-task times.
  const auto graphs = layered_corpus(30, 3, 64);
  const Cluster c = platform_by_name("chti");
  const auto model = make_model("model1");
  EmtsConfig cfg = emts5_config();
  for (const auto& g : graphs) {
    const EmtsResult r = Emts(cfg).schedule(make_instance(g, model, c));
    // Work lower bound with perfect speedup (alpha >= 0 only helps).
    const double work_bound =
        g.total_flops() / (c.flops_per_second() *
                           static_cast<double>(c.num_processors()));
    EXPECT_GE(r.makespan, work_bound - 1e-9) << g.name();
  }
}

}  // namespace
}  // namespace ptgsched
