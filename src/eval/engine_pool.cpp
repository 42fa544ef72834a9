#include "eval/engine_pool.hpp"

#include <algorithm>
#include <limits>

namespace ptgsched {

void EnginePool::Lease::release() noexcept {
  if (pool_ != nullptr && engine_ != nullptr) {
    pool_->check_in(key_, std::move(engine_));
  }
  pool_ = nullptr;
  engine_.reset();
}

EnginePool::EnginePool() : EnginePool(Config()) {}

EnginePool::EnginePool(Config config) : config_(config) {}

EnginePool::Lease EnginePool::acquire(
    std::uint64_t key,
    const std::function<std::shared_ptr<const ProblemInstance>()>&
        make_instance) {
  std::unique_ptr<EvaluationEngine> engine;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = std::find_if(
        idle_.begin(), idle_.end(),
        [key](const IdleEntry& e) { return e.key == key; });
    if (it != idle_.end()) {
      engine = std::move(it->engine);
      idle_.erase(it);
      ++hits_;
    } else {
      ++misses_;
    }
  }
  if (engine == nullptr) {
    // Built outside the lock: instance construction + engine warm-up is
    // the expensive path and must not serialize unrelated acquires.
    engine = std::make_unique<EvaluationEngine>(
        make_instance(), config_.mapping, engine_config());
  }
  // Per-run state must not leak between requests: the token belongs to the
  // previous request, the stats to its report, and a stale incumbent bound
  // could wrongly reject evaluations of the next run.
  engine->set_cancel(nullptr);
  engine->set_incumbent(std::numeric_limits<double>::infinity());
  engine->reset_stats();
  return Lease(this, key, std::move(engine));
}

void EnginePool::check_in(std::uint64_t key,
                          std::unique_ptr<EvaluationEngine> engine) noexcept {
  engine->set_cancel(nullptr);
  std::lock_guard<std::mutex> lock(mu_);
  IdleEntry entry;
  entry.key = key;
  entry.last_used = ++tick_;
  entry.engine = std::move(engine);
  idle_.push_back(std::move(entry));
  while (idle_.size() > config_.capacity) {
    const auto oldest = std::min_element(
        idle_.begin(), idle_.end(),
        [](const IdleEntry& a, const IdleEntry& b) {
          return a.last_used < b.last_used;
        });
    idle_.erase(oldest);
    ++evictions_;
  }
}

EvalEngineConfig EnginePool::engine_config() const {
  EvalEngineConfig cfg;
  cfg.threads = config_.threads_per_engine;
  cfg.memoize = config_.memoize;
  return cfg;
}

EnginePool::Stats EnginePool::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s;
  s.hits = hits_;
  s.misses = misses_;
  s.evictions = evictions_;
  s.idle = idle_.size();
  return s;
}

}  // namespace ptgsched
