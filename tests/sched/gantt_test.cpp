// Tests for the Gantt renderers (Figure 6 visualization support).

#include "sched/gantt.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "../common/test_graphs.hpp"
#include "sched/list_scheduler.hpp"

namespace ptgsched {
namespace {

using testutil::FixedTimeModel;
using testutil::make_instance;
using testutil::unit_cluster;

Schedule sample_schedule(const Ptg& g, const Cluster& c) {
  const FixedTimeModel model;
  ListScheduler sched(make_instance(g, model, c));
  return sched.build_schedule(Allocation(g.num_tasks(), 1));
}

TEST(GanttAscii, HasOneRowPerProcessor) {
  const Ptg g = testutil::diamond();
  const Cluster c = unit_cluster(3);
  const std::string art = gantt_ascii(sample_schedule(g, c));
  // 3 processor rows + 1 axis row.
  EXPECT_EQ(std::count(art.begin(), art.end(), '\n'), 4);
  EXPECT_NE(art.find("p000"), std::string::npos);
  EXPECT_NE(art.find("p002"), std::string::npos);
}

TEST(GanttAscii, ShowsTasksAndIdle) {
  const Ptg g = testutil::chain3();
  const Cluster c = unit_cluster(2);
  const std::string art = gantt_ascii(sample_schedule(g, c));
  EXPECT_NE(art.find('0'), std::string::npos);   // task 0 drawn
  EXPECT_NE(art.find('2'), std::string::npos);   // task 2 drawn
  EXPECT_NE(art.find('.'), std::string::npos);   // idle exists (proc 1)
}

TEST(GanttAscii, EmptyScheduleHandled) {
  EXPECT_EQ(gantt_ascii(Schedule()), "(empty schedule)\n");
}

TEST(GanttAscii, WidthOptionRespected) {
  const Ptg g = testutil::chain3();
  const Cluster c = unit_cluster(1);
  AsciiGanttOptions opts;
  opts.width = 40;
  const std::string art = gantt_ascii(sample_schedule(g, c), opts);
  const auto first_newline = art.find('\n');
  // "p000 |" + 40 cells + "|"
  EXPECT_EQ(first_newline, 6u + 40u + 1u);
}

TEST(GanttAscii, AxisShowsMakespan) {
  const Ptg g = testutil::chain3();
  const Cluster c = unit_cluster(1);
  const std::string art = gantt_ascii(sample_schedule(g, c));
  EXPECT_NE(art.find("6.000s"), std::string::npos);
}

TEST(GanttSvg, WellFormedDocument) {
  const Ptg g = testutil::diamond();
  const Cluster c = unit_cluster(4);
  const std::string svg = gantt_svg(sample_schedule(g, c), g);
  EXPECT_EQ(svg.rfind("<svg", 0), 0u);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
  // One rect per task (all single-processor, contiguous).
  EXPECT_EQ(static_cast<int>(std::string::npos != svg.find("<rect")), 1);
  std::size_t rects = 0;
  for (std::size_t pos = svg.find("<rect"); pos != std::string::npos;
       pos = svg.find("<rect", pos + 1)) {
    ++rects;
  }
  EXPECT_EQ(rects, g.num_tasks());
}

TEST(GanttSvg, MergesContiguousProcessorRuns) {
  // A task on processors {0,1,2} renders as one rectangle; {0,2} as two.
  Ptg g;
  g.add_task(testutil::simple_task("wide", 2.0));
  Schedule s("x", 4);
  s.add({0, 0.0, 2.0, {0, 2}});
  const std::string svg = gantt_svg(s, g);
  std::size_t rects = 0;
  for (std::size_t pos = svg.find("<rect"); pos != std::string::npos;
       pos = svg.find("<rect", pos + 1)) {
    ++rects;
  }
  EXPECT_EQ(rects, 2u);

  Schedule s2("x", 4);
  s2.add({0, 0.0, 2.0, {0, 1, 2}});
  const std::string svg2 = gantt_svg(s2, g);
  rects = 0;
  for (std::size_t pos = svg2.find("<rect"); pos != std::string::npos;
       pos = svg2.find("<rect", pos + 1)) {
    ++rects;
  }
  EXPECT_EQ(rects, 1u);
}

TEST(GanttSvg, ContainsMakespanHeader) {
  const Ptg g = testutil::chain3();
  const Cluster c = unit_cluster(2);
  const std::string svg = gantt_svg(sample_schedule(g, c), g);
  EXPECT_NE(svg.find("makespan=6.000"), std::string::npos);
}

TEST(GanttSvg, WriteFile) {
  const auto path =
      std::filesystem::temp_directory_path() / "ptgsched_gantt.svg";
  const Ptg g = testutil::diamond();
  const Cluster c = unit_cluster(4);
  write_gantt_svg(sample_schedule(g, c), g, path.string());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string first;
  std::getline(in, first);
  EXPECT_EQ(first.rfind("<svg", 0), 0u);
  std::filesystem::remove(path);
}

TEST(GanttSvg, WriteFileFailsOnBadPath) {
  const Ptg g = testutil::chain3();
  const Cluster c = unit_cluster(1);
  EXPECT_THROW(
      write_gantt_svg(sample_schedule(g, c), g, "/nonexistent/dir/x.svg"),
      std::runtime_error);
}

}  // namespace
}  // namespace ptgsched
