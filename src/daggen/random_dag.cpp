#include "daggen/random_dag.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <unordered_set>

namespace ptgsched {

namespace {

void check_params(const RandomDagParams& p) {
  if (p.num_tasks < 1) {
    throw std::invalid_argument("RandomDagParams: num_tasks < 1");
  }
  if (!(p.width > 0.0 && p.width <= 1.0)) {
    throw std::invalid_argument("RandomDagParams: width not in (0, 1]");
  }
  if (!(p.regularity >= 0.0 && p.regularity <= 1.0)) {
    throw std::invalid_argument("RandomDagParams: regularity not in [0, 1]");
  }
  if (!(p.density > 0.0 && p.density <= 1.0)) {
    throw std::invalid_argument("RandomDagParams: density not in (0, 1]");
  }
  if (p.jump < 0) throw std::invalid_argument("RandomDagParams: jump < 0");
}

}  // namespace

Ptg make_random_ptg(const RandomDagParams& params, Rng& rng) {
  check_params(params);
  const int n = params.num_tasks;
  Ptg g((params.jump == 0 ? "layered-" : "irregular-") + std::to_string(n));

  // --- Level structure. --------------------------------------------------
  const double mean_width =
      std::max(1.0, std::pow(static_cast<double>(n), params.width));
  std::vector<std::vector<TaskId>> levels;
  int created = 0;
  while (created < n) {
    // Level size jittered by up to (1 - regularity) * 100% around the mean.
    const double jitter = 1.0 - params.regularity;
    const double factor = rng.uniform_real(1.0 - jitter, 1.0 + jitter);
    int count = std::max(1, static_cast<int>(std::lround(mean_width * factor)));
    count = std::min(count, n - created);
    std::vector<TaskId> level;
    level.reserve(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i) {
      Task t;
      // append() rather than "t" + ...: GCC 12 reports a false -Wrestrict
      // on a literal plus a temporary string.
      t.name = std::string("t").append(std::to_string(created + i));
      t.flops = 1.0;
      level.push_back(g.add_task(std::move(t)));
    }
    created += count;
    levels.push_back(std::move(level));
  }

  // --- Dependencies. -----------------------------------------------------
  std::unordered_set<TaskId> chosen;
  for (std::size_t l = 1; l < levels.size(); ++l) {
    const auto& prev = levels[l - 1];
    for (const TaskId v : levels[l]) {
      const double spread = rng.uniform_real(0.5, 1.5);
      const int wanted = std::max(
          1, static_cast<int>(std::lround(
                 params.density * static_cast<double>(prev.size()) * spread)));
      chosen.clear();
      int attempts = 0;
      while (static_cast<int>(chosen.size()) < wanted &&
             attempts < 4 * wanted + 16) {
        ++attempts;
        // Parent level: l - 1 - J, J uniform in [0, jump].
        const std::size_t max_back = std::min<std::size_t>(
            static_cast<std::size_t>(params.jump), l - 1);
        const auto back = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(max_back)));
        const auto& src_level = levels[l - 1 - back];
        chosen.insert(src_level[rng.index(src_level.size())]);
      }
      if (chosen.empty()) chosen.insert(prev[rng.index(prev.size())]);
      for (const TaskId u : chosen) {
        if (!g.has_edge(u, v)) g.add_edge(u, v);
      }
    }
  }

  // --- Complexities. -------------------------------------------------------
  if (params.jump == 0) {
    // Layered: tasks of one layer do similar work (Section IV-C). Sample a
    // reference complexity per level and jitter each task's work by +-10%.
    for (const auto& level : levels) {
      Task ref;
      assign_random_complexity(ref, rng, params.complexity);
      for (const TaskId v : level) {
        Task& t = g.task(v);
        t.data_size = ref.data_size;
        t.alpha = ref.alpha;
        t.flops = ref.flops * rng.uniform_real(0.9, 1.1);
      }
    }
  } else {
    assign_random_complexities(g, rng, params.complexity);
  }

  g.validate();
  return g;
}

}  // namespace ptgsched
