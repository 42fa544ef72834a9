#include "reference_mapper.hpp"

#include <algorithm>
#include <stdexcept>

namespace ptgsched {

ReferenceMapper::ReferenceMapper(
    std::shared_ptr<const ProblemInstance> instance,
    ListSchedulerOptions options)
    : instance_(std::move(instance)), options_(options) {
  if (instance_ == nullptr) {
    throw std::invalid_argument("ReferenceMapper: null problem instance");
  }
  hetero_ = instance_->heterogeneous();
  table_ = hetero_ ? instance_->proc_time_table().data()
                   : instance_->time_table().data();
  if (instance_->cluster().has_comm_costs()) {
    comm_ = instance_->cluster().comm_matrix().data();
  }
  const std::size_t n = instance_->num_tasks();
  avail_.assign(static_cast<std::size_t>(instance_->num_processors()), 0.0);
  times_.resize(n);
  bl_.reserve(n);
  data_ready_.reserve(n);
  waiting_preds_.reserve(n);
  ready_heap_.reserve(n);
  proc_order_.reserve(avail_.size());
  query_times_.reserve(avail_.size());
}

Schedule ReferenceMapper::build_schedule(const Allocation& alloc) {
  Schedule out(instance_->graph().name(), instance_->num_processors());
  run(alloc, &out, std::numeric_limits<double>::infinity());
  return out;
}

double ReferenceMapper::earliest_start(std::size_t size,
                                       double data_ready) const {
  query_times_ = avail_;
  std::nth_element(query_times_.begin(),
                   query_times_.begin() + static_cast<long>(size - 1),
                   query_times_.end());
  return std::max(data_ready, query_times_[size - 1]);
}

double ReferenceMapper::run(const Allocation& alloc, Schedule* out,
                            double upper_bound) {
  const Ptg& g = instance_->graph();
  validate_allocation(alloc, g, instance_->cluster());

  const std::size_t n = g.num_tasks();
  const auto stride = static_cast<std::size_t>(instance_->num_processors());
  for (TaskId v = 0; v < n; ++v) {
    times_[v] = table_[v * stride + static_cast<std::size_t>(alloc[v] - 1)];
  }

  bl_.assign(n, 0.0);
  const std::span<const TaskId> topo = instance_->topo_order();
  for (std::size_t i = topo.size(); i-- > 0;) {
    const TaskId v = topo[i];
    double best = 0.0;
    for (const TaskId w : g.successors(v)) best = std::max(best, bl_[w]);
    bl_[v] = times_[v] + best;
  }

  data_ready_.assign(n, 0.0);
  std::fill(avail_.begin(), avail_.end(), 0.0);

  const auto ready_less = [this](TaskId a, TaskId b) {
    if (bl_[a] != bl_[b]) return bl_[a] < bl_[b];
    return a > b;
  };
  ready_heap_.clear();
  waiting_preds_.resize(n);
  for (TaskId v = 0; v < n; ++v) {
    waiting_preds_[v] = g.in_degree(v);
    if (waiting_preds_[v] == 0) ready_heap_.push_back(v);
  }
  std::make_heap(ready_heap_.begin(), ready_heap_.end(), ready_less);

  double makespan = 0.0;
  std::size_t scheduled = 0;
  while (!ready_heap_.empty()) {
    std::pop_heap(ready_heap_.begin(), ready_heap_.end(), ready_less);
    const TaskId v = ready_heap_.back();
    ready_heap_.pop_back();

    const auto size = static_cast<std::size_t>(alloc[v]);
    // Heterogeneous mode: the gene IS the processor, so availability is a
    // direct read and occupation a direct write — no selection policy.
    const std::size_t proc =
        hetero_ ? static_cast<std::size_t>(alloc[v] - 1) : 0;
    const double start = hetero_ ? std::max(data_ready_[v], avail_[proc])
                                 : earliest_start(size, data_ready_[v]);
    const double finish = start + times_[v];
    makespan = std::max(makespan, finish);

    if (start + bl_[v] > upper_bound) {
      ++rejected_;
      return std::numeric_limits<double>::infinity();
    }

    if (hetero_) {
      avail_[proc] = finish;
      if (out != nullptr) {
        PlacedTask placed;
        placed.task = v;
        placed.start = start;
        placed.finish = finish;
        placed.processors.push_back(static_cast<int>(proc));
        out->add(std::move(placed));
      }
    } else {
      occupy(v, size, start, finish, options_.selection, out);
    }

    ++scheduled;
    for (const TaskId w : g.successors(v)) {
      double arrive = finish;
      if (comm_ != nullptr) {
        arrive += comm_[proc * stride +
                        static_cast<std::size_t>(alloc[w] - 1)];
      }
      data_ready_[w] = std::max(data_ready_[w], arrive);
      if (--waiting_preds_[w] == 0) {
        ready_heap_.push_back(w);
        std::push_heap(ready_heap_.begin(), ready_heap_.end(), ready_less);
      }
    }
  }

  if (scheduled != n) {
    throw GraphError("reference mapper: graph has a cycle");
  }
  return makespan;
}

void ReferenceMapper::occupy(TaskId v, std::size_t size, double start,
                             double finish, ProcessorSelection selection,
                             Schedule* out) {
  std::vector<double>& av = avail_;
  const std::size_t s = size;

  if (out == nullptr) {
    std::nth_element(av.begin(), av.begin() + static_cast<long>(s - 1),
                     av.end());
    if (selection == ProcessorSelection::EarliestAvailable) {
      std::fill(av.begin(), av.begin() + static_cast<long>(s), finish);
    } else {
      const auto eligible_end = std::partition(
          av.begin(), av.end(), [&](double t) { return t <= start; });
      std::nth_element(av.begin(), eligible_end - static_cast<long>(s),
                       eligible_end);
      std::fill(eligible_end - static_cast<long>(s), eligible_end, finish);
    }
    return;
  }

  proc_order_.resize(av.size());
  for (std::size_t i = 0; i < av.size(); ++i) {
    proc_order_[i] = static_cast<int>(i);
  }
  std::sort(proc_order_.begin(), proc_order_.end(), [&av](int a, int b) {
    const auto ua = static_cast<std::size_t>(a);
    const auto ub = static_cast<std::size_t>(b);
    if (av[ua] != av[ub]) return av[ua] < av[ub];
    return a < b;
  });

  std::size_t first = 0;
  if (selection == ProcessorSelection::BestFit) {
    std::size_t eligible = s;
    while (eligible < proc_order_.size() &&
           av[static_cast<std::size_t>(proc_order_[eligible])] <= start) {
      ++eligible;
    }
    first = eligible - s;
  }

  PlacedTask placed;
  placed.task = v;
  placed.start = start;
  placed.finish = finish;
  placed.processors.reserve(s);
  for (std::size_t k = first; k < first + s; ++k) {
    av[static_cast<std::size_t>(proc_order_[k])] = finish;
    placed.processors.push_back(proc_order_[k]);
  }
  std::sort(placed.processors.begin(), placed.processors.end());
  out->add(std::move(placed));
}

}  // namespace ptgsched
