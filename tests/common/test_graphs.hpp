#pragma once
// Shared fixtures: small hand-built PTGs with known properties, a
// fixed-time execution model for exact schedule arithmetic in tests, and
// make_instance(), which builds an owned ProblemInstance from values.

#include <concepts>
#include <map>
#include <memory>

#include "core/problem_instance.hpp"
#include "model/execution_time.hpp"
#include "platform/cluster.hpp"
#include "ptg/graph.hpp"

namespace ptgsched::testutil {

inline Task simple_task(const std::string& name, double flops,
                        double alpha = 0.0) {
  Task t;
  t.name = name;
  t.flops = flops;
  t.alpha = alpha;
  t.data_size = flops;
  return t;
}

/// Chain a -> b -> c with flops 1, 2, 3 (in units of cluster speed).
inline Ptg chain3() {
  Ptg g("chain3");
  const TaskId a = g.add_task(simple_task("a", 1.0));
  const TaskId b = g.add_task(simple_task("b", 2.0));
  const TaskId c = g.add_task(simple_task("c", 3.0));
  g.add_edge(a, b);
  g.add_edge(b, c);
  return g;
}

/// Diamond: s -> {l, r} -> t. Flops: s=1, l=4, r=2, t=1.
inline Ptg diamond() {
  Ptg g("diamond");
  const TaskId s = g.add_task(simple_task("s", 1.0));
  const TaskId l = g.add_task(simple_task("l", 4.0));
  const TaskId r = g.add_task(simple_task("r", 2.0));
  const TaskId t = g.add_task(simple_task("t", 1.0));
  g.add_edge(s, l);
  g.add_edge(s, r);
  g.add_edge(l, t);
  g.add_edge(r, t);
  return g;
}

/// Fork-join: src -> {w0..w3} -> sink; each worker has flops 2.
inline Ptg fork_join(int workers = 4) {
  Ptg g("forkjoin");
  const TaskId src = g.add_task(simple_task("src", 1.0));
  const TaskId sink_placeholder = kInvalidTask;
  (void)sink_placeholder;
  std::vector<TaskId> ws;
  for (int i = 0; i < workers; ++i) {
    ws.push_back(g.add_task(simple_task("w" + std::to_string(i), 2.0)));
    g.add_edge(src, ws.back());
  }
  const TaskId sink = g.add_task(simple_task("sink", 1.0));
  for (const TaskId w : ws) g.add_edge(w, sink);
  return g;
}

/// Two independent chains of length 2 (multiple sources and sinks).
inline Ptg two_chains() {
  Ptg g("twochains");
  const TaskId a0 = g.add_task(simple_task("a0", 2.0));
  const TaskId a1 = g.add_task(simple_task("a1", 2.0));
  const TaskId b0 = g.add_task(simple_task("b0", 3.0));
  const TaskId b1 = g.add_task(simple_task("b1", 3.0));
  g.add_edge(a0, a1);
  g.add_edge(b0, b1);
  return g;
}

/// Execution-time model where T(v, p) = flops(v) regardless of p and
/// platform speed: makes schedule arithmetic exact in tests.
class FixedTimeModel final : public ExecutionTimeModel {
 public:
  double time(const Task& task, int p,
              const Cluster& cluster) const override {
    check_args(task, p, cluster);
    return task.flops;
  }
  std::string name() const override { return "fixed"; }
};

/// Model where T(v, p) = flops(v) / p (perfectly scalable), for testing
/// moldability effects with exact numbers.
class LinearSpeedupModel final : public ExecutionTimeModel {
 public:
  double time(const Task& task, int p,
              const Cluster& cluster) const override {
    check_args(task, p, cluster);
    return task.flops / static_cast<double>(p);
  }
  std::string name() const override { return "linear"; }
};

/// Unit-speed cluster with P processors.
inline Cluster unit_cluster(int p) { return Cluster("unit", p, 1e-9); }

/// Owned problem instance over a copy of `g` and `cluster`, sharing
/// `model` (e.g. from make_model).
inline std::shared_ptr<const ProblemInstance> make_instance(
    Ptg g, std::shared_ptr<const ExecutionTimeModel> model, Cluster cluster) {
  return ProblemInstance::create(std::make_shared<const Ptg>(std::move(g)),
                                 std::move(model),
                                 std::make_shared<const Cluster>(
                                     std::move(cluster)));
}

/// Same, over a copy of a concrete model value.
template <std::derived_from<ExecutionTimeModel> Model>
std::shared_ptr<const ProblemInstance> make_instance(Ptg g,
                                                     const Model& model,
                                                     Cluster cluster) {
  return make_instance(std::move(g), std::make_shared<const Model>(model),
                       std::move(cluster));
}

}  // namespace ptgsched::testutil
