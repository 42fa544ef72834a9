#pragma once
// EnginePool — shared EvaluationEngines across serve requests.
//
// A scheduling service sees the same problems over and over: the same
// tenant resubmits the same PTG class on the same platform, load
// generators replay one job shape thousands of times, and a recovered
// journal re-runs the exact submissions that were in flight. Building an
// EvaluationEngine per request would pay the expensive parts — spawning
// the worker pool, warming the ProblemInstance's lazy tables, and an
// always-cold memo cache — on every single request.
//
// The pool checks engines out and in, keyed by a caller-computed problem
// fingerprint (serve hashes the canonical job spec). A hit hands back a
// warm engine whose memo cache already contains every allocation this
// problem has seen — and because memo hits return *exact* cached
// makespans, a pooled engine returns bit-identical results to a cold one.
//
// Concurrency contract: one Lease = one exclusive engine (evaluate_batch
// is not reentrant), so concurrent requests for the same key get distinct
// engines. acquire()/release are thread-safe; idle engines above
// `capacity` are evicted least-recently-used.

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "eval/evaluation_engine.hpp"

namespace ptgsched {

class EnginePool {
 public:
  struct Config {
    /// Maximum *idle* engines retained; checked-out engines are unbounded
    /// (the admission queue bounds concurrent requests upstream).
    std::size_t capacity = 8;
    /// EvalEngineConfig::threads for engines the pool creates. The serve
    /// workers are already one-per-core, so per-engine pools default to
    /// inline evaluation.
    std::size_t threads_per_engine = 0;
    /// Memoize exact makespans (the cross-request warm-cache win).
    bool memoize = true;
    ListSchedulerOptions mapping{};
  };

  struct Stats {
    std::uint64_t hits = 0;       ///< acquire() served from an idle engine.
    std::uint64_t misses = 0;     ///< acquire() built a fresh engine.
    std::uint64_t evictions = 0;  ///< Idle engines dropped over capacity.
    std::size_t idle = 0;         ///< Idle engines currently pooled.
  };

  /// Exclusive use of one engine; returns it to the pool on destruction.
  class Lease {
   public:
    Lease() = default;
    Lease(Lease&& other) noexcept
        : pool_(other.pool_), key_(other.key_),
          engine_(std::move(other.engine_)) {
      other.pool_ = nullptr;
    }
    Lease& operator=(Lease&& other) noexcept {
      if (this != &other) {
        release();
        pool_ = other.pool_;
        key_ = other.key_;
        engine_ = std::move(other.engine_);
        other.pool_ = nullptr;
      }
      return *this;
    }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease() { release(); }

    [[nodiscard]] EvaluationEngine& engine() { return *engine_; }
    [[nodiscard]] bool valid() const noexcept { return engine_ != nullptr; }

   private:
    friend class EnginePool;
    Lease(EnginePool* pool, std::uint64_t key,
          std::unique_ptr<EvaluationEngine> engine)
        : pool_(pool), key_(key), engine_(std::move(engine)) {}
    void release() noexcept;

    EnginePool* pool_ = nullptr;
    std::uint64_t key_ = 0;
    std::unique_ptr<EvaluationEngine> engine_;
  };

  EnginePool();
  explicit EnginePool(Config config);

  /// Check out an engine for `key`. On a miss, `make_instance` is invoked
  /// (outside the pool lock) to build the problem the new engine binds to;
  /// the instance is warmed by the engine's constructor path. The returned
  /// lease's engine has per-run state neutralized: stats reset, incumbent
  /// cleared, cancellation token unbound.
  [[nodiscard]] Lease acquire(
      std::uint64_t key,
      const std::function<std::shared_ptr<const ProblemInstance>()>&
          make_instance);

  [[nodiscard]] Stats stats() const;

  /// The configuration acquire() builds fresh engines with
  /// (Config::threads_per_engine and Config::memoize; everything else at
  /// its EvalEngineConfig default).
  [[nodiscard]] EvalEngineConfig engine_config() const;

 private:
  struct IdleEntry {
    std::uint64_t key = 0;
    std::uint64_t last_used = 0;  ///< Pool tick, for LRU eviction.
    std::unique_ptr<EvaluationEngine> engine;
  };

  void check_in(std::uint64_t key,
                std::unique_ptr<EvaluationEngine> engine) noexcept;

  Config config_;
  mutable std::mutex mu_;
  std::vector<IdleEntry> idle_;
  std::uint64_t tick_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace ptgsched
