#include "support/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>

namespace ptgsched {

ThreadPool::ThreadPool(std::size_t num_threads) {
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

std::vector<std::thread::id> ThreadPool::thread_ids() const {
  std::vector<std::thread::id> ids;
  ids.reserve(workers_.size());
  for (const auto& w : workers_) ids.push_back(w.get_id());
  return ids;
}

void ThreadPool::worker_loop() {
  while (true) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    job();
  }
}

void ThreadPool::parallel_for_blocked(
    std::size_t n, std::size_t grain,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& body) {
  if (n == 0) return;
  grain = std::max<std::size_t>(1, grain);
  const std::size_t blocks = (n + grain - 1) / grain;
  if (workers_.empty() || blocks == 1) {
    for (std::size_t b = 0; b < blocks; ++b) {
      body(b * grain, std::min(n, (b + 1) * grain), 0);
    }
    return;
  }

  struct State {
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::atomic<bool> failed{false};
    std::exception_ptr error;
    std::mutex error_mu;
    std::mutex done_mu;
    std::condition_variable done_cv;
  };
  auto state = std::make_shared<State>();

  // Each participant keeps one slot for the whole call, so per-slot scratch
  // in the body is never shared between concurrently running blocks.
  auto run_blocks = [state, n, grain, blocks, &body](std::size_t slot) {
    while (true) {
      const std::size_t b = state->next.fetch_add(1);
      if (b >= blocks) break;
      if (!state->failed.load(std::memory_order_relaxed)) {
        try {
          body(b * grain, std::min(n, (b + 1) * grain), slot);
        } catch (...) {
          const std::lock_guard<std::mutex> lock(state->error_mu);
          if (!state->failed.exchange(true)) {
            state->error = std::current_exception();
          }
        }
      }
      const std::size_t finished = state->done.fetch_add(1) + 1;
      if (finished == blocks) {
        const std::lock_guard<std::mutex> lock(state->done_mu);
        state->done_cv.notify_all();
      }
    }
  };

  const std::size_t helpers = std::min(workers_.size(), blocks - 1);
  {
    const std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t i = 0; i < helpers; ++i) {
      queue_.emplace_back([run_blocks, slot = i + 1] { run_blocks(slot); });
    }
  }
  cv_.notify_all();

  run_blocks(0);  // The calling thread participates as slot 0.

  {
    std::unique_lock<std::mutex> lock(state->done_mu);
    state->done_cv.wait(lock, [&] { return state->done.load() == blocks; });
  }
  if (state->failed.load()) std::rethrow_exception(state->error);
}

}  // namespace ptgsched
