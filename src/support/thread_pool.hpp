#pragma once
// Fixed-size worker pool with one dispatch: parallel_for_blocked.
//
// Fitness evaluation of the EA's offspring is embarrassingly parallel (each
// individual is mapped independently); the pool lets EMTS evaluate a whole
// generation concurrently. With no workers, or a single block, all work
// runs inline on the caller, which keeps single-core runs deterministic
// and cheap.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ptgsched {

class ThreadPool {
 public:
  /// Create a pool with the given number of worker threads; 0 means
  /// "run everything inline on the calling thread".
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t num_threads() const noexcept {
    return workers_.size();
  }

  /// Number of participants a parallel call can use: the workers plus the
  /// calling thread. Also the exclusive upper bound of the `slot` argument
  /// of parallel_for_blocked.
  [[nodiscard]] std::size_t num_slots() const noexcept {
    return workers_.size() + 1;
  }

  /// IDs of the worker threads (stable for the pool's whole lifetime).
  [[nodiscard]] std::vector<std::thread::id> thread_ids() const;

  /// Dynamic blocked range: run body(lo, hi, slot) over [0, n) split into
  /// blocks of at most `grain` indices (grain < 1 is treated as 1),
  /// blocking until every block finishes. Blocks are pulled from a shared
  /// atomic counter, so imbalanced iterations (e.g. rejection-bailout
  /// fitness evaluations) rebalance automatically while paying one atomic
  /// op per block and one queue entry per helper. `slot` is a stable
  /// participant id in [0, num_slots()): slot 0 is the calling thread and
  /// each helper gets a distinct slot, so the body may use per-slot
  /// scratch without locking — no two concurrent invocations ever share a
  /// slot. Blocks arrive in arbitrary order. Exceptions from body are
  /// rethrown on the calling thread (first one wins); later blocks are
  /// skipped once one has thrown.
  void parallel_for_blocked(
      std::size_t n, std::size_t grain,
      const std::function<void(std::size_t, std::size_t, std::size_t)>& body);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
};

}  // namespace ptgsched
