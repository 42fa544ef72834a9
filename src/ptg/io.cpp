#include "ptg/io.hpp"

#include <cmath>
#include <sstream>

#include "support/error_context.hpp"
#include "support/strings.hpp"

namespace ptgsched {

Json ptg_to_json(const Ptg& g) {
  Json doc = Json::object();
  doc.set("name", g.name());
  Json tasks = Json::array();
  for (TaskId v = 0; v < g.num_tasks(); ++v) {
    const Task& t = g.task(v);
    Json jt = Json::object();
    jt.set("name", t.name);
    jt.set("flops", t.flops);
    jt.set("data", t.data_size);
    jt.set("alpha", t.alpha);
    tasks.push_back(std::move(jt));
  }
  doc.set("tasks", std::move(tasks));
  Json edges = Json::array();
  for (TaskId v = 0; v < g.num_tasks(); ++v) {
    for (const TaskId w : g.successors(v)) {
      Json e = Json::array();
      e.push_back(Json(static_cast<std::int64_t>(v)));
      e.push_back(Json(static_cast<std::int64_t>(w)));
      edges.push_back(std::move(e));
    }
  }
  doc.set("edges", std::move(edges));
  return doc;
}

Ptg ptg_from_json(const Json& doc, const std::string& path) {
  Ptg g(doc.get_or("name", std::string("ptg")));
  std::size_t task_index = 0;
  for (const Json& jt : json_require(doc, "tasks", "ptg document").as_array()) {
    const std::string where = "tasks[" + std::to_string(task_index) + "]";
    Task t;
    t.name = jt.get_or("name", std::string());
    t.flops = json_require(jt, "flops",
                           "ptg task #" + std::to_string(task_index))
                  .as_double();
    // Hostile-input guards, each naming the offending key. !(x > 0) also
    // rejects NaN, which compares false against everything.
    if (!std::isfinite(t.flops) || !(t.flops > 0.0)) {
      throw LoadError(path, where + ".flops",
                      "execution cost must be finite and positive");
    }
    t.data_size = jt.get_or("data", 0.0);
    if (!std::isfinite(t.data_size) || t.data_size < 0.0) {
      throw LoadError(path, where + ".data",
                      "data size must be finite and non-negative");
    }
    t.alpha = jt.get_or("alpha", 0.0);
    if (!(t.alpha >= 0.0 && t.alpha <= 1.0)) {
      throw LoadError(path, where + ".alpha",
                      "Amdahl fraction must be in [0, 1]");
    }
    g.add_task(std::move(t));
    ++task_index;
  }
  if (doc.contains("edges")) {
    std::size_t edge_index = 0;
    for (const Json& je : doc.at("edges").as_array()) {
      const std::string where = "edges[" + std::to_string(edge_index) + "]";
      if (je.size() != 2) {
        throw LoadError(path, where, "edge arity != 2");
      }
      const auto from = je.at(std::size_t{0}).as_int();
      const auto to = je.at(std::size_t{1}).as_int();
      if (from < 0 || to < 0) {
        throw LoadError(path, where, "negative task id");
      }
      try {
        // add_edge rejects self-loops, duplicate edges, and unknown ids.
        g.add_edge(static_cast<TaskId>(from), static_cast<TaskId>(to));
      } catch (const GraphError& e) {
        throw LoadError(path, where, e.what());
      }
      ++edge_index;
    }
  }
  try {
    g.validate();  // non-empty and acyclic
  } catch (const GraphError& e) {
    throw LoadError(path, "", e.what());
  }
  return g;
}

void save_ptg(const Ptg& g, const std::string& path) {
  ptg_to_json(g).write_file(path);
}

Ptg load_ptg(const std::string& path) {
  // Attach the file path (the nested message already names the offending
  // key, if any) so a failed load in a long sweep is actionable.
  try {
    return ptg_from_json(Json::parse_file(path), path);
  } catch (const LoadError&) {
    throw;
  } catch (const std::exception& e) {
    throw LoadError(path, "", std::string("load_ptg: ") + e.what());
  }
}

std::string ptg_to_dot(const Ptg& g) {
  std::ostringstream out;
  out << "digraph \"" << g.name() << "\" {\n";
  out << "  rankdir=TB;\n  node [shape=box];\n";
  for (TaskId v = 0; v < g.num_tasks(); ++v) {
    const Task& t = g.task(v);
    // append() rather than "v" + ...: GCC 12 reports a false -Wrestrict
    // on a literal plus a temporary string.
    const std::string label =
        t.name.empty() ? std::string("v").append(std::to_string(v)) : t.name;
    out << "  n" << v << " [label=\"" << label << "\\n"
        << strfmt("%.3g", t.flops) << " FLOP\"];\n";
  }
  for (TaskId v = 0; v < g.num_tasks(); ++v) {
    for (const TaskId w : g.successors(v)) {
      out << "  n" << v << " -> n" << w << ";\n";
    }
  }
  out << "}\n";
  return out.str();
}

}  // namespace ptgsched
