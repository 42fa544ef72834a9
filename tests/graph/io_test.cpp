// Tests for PTG serialization (JSON round-trip, DOT export).

#include "ptg/io.hpp"

#include <gtest/gtest.h>

#include <filesystem>

#include "../common/test_graphs.hpp"
#include "daggen/application_graphs.hpp"
#include "support/error_context.hpp"

namespace ptgsched {
namespace {

bool graphs_equal(const Ptg& a, const Ptg& b) {
  if (a.num_tasks() != b.num_tasks() || a.num_edges() != b.num_edges()) {
    return false;
  }
  for (TaskId v = 0; v < a.num_tasks(); ++v) {
    const Task& ta = a.task(v);
    const Task& tb = b.task(v);
    if (ta.name != tb.name || ta.flops != tb.flops ||
        ta.alpha != tb.alpha || ta.data_size != tb.data_size) {
      return false;
    }
    const auto sa = a.successors(v);
    const auto sb = b.successors(v);
    if (!std::equal(sa.begin(), sa.end(), sb.begin(), sb.end())) return false;
  }
  return true;
}

TEST(PtgJson, RoundTripDiamond) {
  const Ptg g = testutil::diamond();
  const Ptg back = ptg_from_json(ptg_to_json(g));
  EXPECT_TRUE(graphs_equal(g, back));
  EXPECT_EQ(back.name(), "diamond");
}

TEST(PtgJson, RoundTripFft) {
  Rng rng(3);
  const Ptg g = make_fft_ptg(8, rng);
  const Ptg back = ptg_from_json(ptg_to_json(g));
  EXPECT_TRUE(graphs_equal(g, back));
}

TEST(PtgJson, SerializedTextRoundTrip) {
  const Ptg g = testutil::fork_join(3);
  const std::string text = ptg_to_json(g).dump(2);
  const Ptg back = ptg_from_json(Json::parse(text));
  EXPECT_TRUE(graphs_equal(g, back));
}

TEST(PtgJson, RejectsBadEdges) {
  Json doc = ptg_to_json(testutil::chain3());
  ASSERT_TRUE(doc.contains("edges"));
  Json bad = doc;
  bad.as_object()["edges"] = Json::parse("[[0]]");
  EXPECT_THROW((void)ptg_from_json(bad), LoadError);
  bad.as_object()["edges"] = Json::parse("[[0, -1]]");
  EXPECT_THROW((void)ptg_from_json(bad), LoadError);
  bad.as_object()["edges"] = Json::parse("[[0, 99]]");
  EXPECT_THROW((void)ptg_from_json(bad), LoadError);
}

TEST(PtgJson, RejectsCyclicDocument) {
  Json doc = ptg_to_json(testutil::chain3());
  doc.as_object()["edges"] = Json::parse("[[0,1],[1,2],[2,0]]");
  EXPECT_THROW((void)ptg_from_json(doc), LoadError);
}

TEST(PtgJson, MissingTasksKeyThrows) {
  EXPECT_THROW((void)ptg_from_json(Json::parse("{}")), JsonError);
}

TEST(PtgJson, DefaultsForOptionalFields) {
  const Json doc = Json::parse(
      R"({"tasks": [{"flops": 2.0}, {"flops": 3.0}], "edges": [[0,1]]})");
  const Ptg g = ptg_from_json(doc);
  EXPECT_EQ(g.num_tasks(), 2u);
  EXPECT_DOUBLE_EQ(g.task(0).alpha, 0.0);
  EXPECT_EQ(g.name(), "ptg");
}

TEST(PtgFile, SaveAndLoad) {
  const auto path =
      std::filesystem::temp_directory_path() / "ptgsched_io_test.json";
  const Ptg g = testutil::diamond();
  save_ptg(g, path.string());
  const Ptg back = load_ptg(path.string());
  EXPECT_TRUE(graphs_equal(g, back));
  std::filesystem::remove(path);
}

TEST(PtgDot, ContainsNodesAndEdges) {
  const std::string dot = ptg_to_dot(testutil::diamond());
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("n0 -> n1"), std::string::npos);
  EXPECT_NE(dot.find("n2 -> n3"), std::string::npos);
  EXPECT_NE(dot.find("\"s\\n"), std::string::npos);  // task label
}

TEST(PtgFile, LoadErrorCarriesPathAndOffendingKey) {
  const auto path = std::filesystem::temp_directory_path() /
                    "ptgsched_io_malformed.json";
  {
    // Valid JSON, but the second task is missing its required "flops".
    Json doc = Json::parse(
        R"({"tasks": [{"flops": 1.0}, {"name": "broken"}], "edges": []})");
    doc.write_file(path.string());
  }
  try {
    (void)load_ptg(path.string());
    FAIL() << "expected LoadError";
  } catch (const LoadError& e) {
    EXPECT_EQ(e.path(), path.string());
    const std::string what = e.what();
    EXPECT_NE(what.find(path.string()), std::string::npos);
    EXPECT_NE(what.find("flops"), std::string::npos);
    EXPECT_NE(what.find("task #1"), std::string::npos);
  }
  std::filesystem::remove(path);
}

TEST(PtgFile, LoadErrorOnMissingTasksKeyNamesTheKey) {
  const auto path = std::filesystem::temp_directory_path() /
                    "ptgsched_io_no_tasks.json";
  Json::parse("{}").write_file(path.string());
  try {
    (void)load_ptg(path.string());
    FAIL() << "expected LoadError";
  } catch (const LoadError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path.string()), std::string::npos);
    EXPECT_NE(what.find("tasks"), std::string::npos);
  }
  std::filesystem::remove(path);
}

TEST(PtgFile, LoadErrorOnMissingFile) {
  EXPECT_THROW((void)load_ptg("/nonexistent/ptgsched/graph.json"),
               LoadError);
}

TEST(PtgDot, UnnamedTasksGetIds) {
  Ptg g;
  Task t;
  t.flops = 1.0;
  g.add_task(t);
  const std::string dot = ptg_to_dot(g);
  EXPECT_NE(dot.find("v0"), std::string::npos);
}

}  // namespace
}  // namespace ptgsched
