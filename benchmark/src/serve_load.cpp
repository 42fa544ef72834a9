// The serve workloads: an in-process ServeServer with its shipped defaults
// (2 workers, queue 64, engine pool 8), driven over its socket by an
// open-loop Poisson load. One submitter connection sends each request at
// its due time whatever the daemon's state; one poller connection sweeps
// the outstanding ids every 200 us and fetches each finished result.
// Latency runs from a request's due time to the sweep that sees it
// terminal, so a stall also charges the requests queued behind it.

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <exception>
#include <filesystem>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common.hpp"
#include "daggen/corpus.hpp"
#include "recompose.hpp"
#include "sched/lower_bounds.hpp"
#include "sched/validate.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "support/atomic_io.hpp"
#include "support/stats.hpp"
#include "support/timer.hpp"

namespace ptgbench {

using namespace ptgsched;
using namespace ptgsched::serve;

namespace {

constexpr double kRequestsPerSecond = 400.0;
/// Traced prefix: requests per nominal second of --seconds.
constexpr double kTracedPerSecond = 50.0;
constexpr int kSetupRepeats = 15;
constexpr auto kSweepInterval = std::chrono::microseconds(200);
/// After the last send, how long outstanding requests may take before
/// they count as lost.
constexpr double kDrainSeconds = 30.0;
constexpr std::size_t kRecomputeSample = 256;
constexpr std::size_t kTenants = 4;

struct ServeWorkload {
  const char* name;
  /// serve-hot: 8 repeated specs keep pooled engines and memo caches warm.
  /// serve-cold: every spec is unique, so every request misses the pool,
  /// builds its instance and engine, and runs EMTS5 on a cold cache.
  bool hot;
};

constexpr ServeWorkload kWorkloads[] = {{"serve-hot", true},
                                        {"serve-cold", false}};

const ServeWorkload* find_workload(const std::string& name) {
  for (const ServeWorkload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

struct Arrival {
  double due_s = 0.0;  ///< Since the start of the load.
  JobSpec spec;
  std::string tenant;
};

std::vector<Arrival> make_arrivals(const ServeWorkload& w, std::uint64_t seed,
                                   std::size_t count) {
  Rng rng(derive_seed(seed, 0xa771));
  std::vector<JobSpec> hot;
  for (const char* cls : {"fft", "strassen", "layered", "irregular"}) {
    for (const int tasks : {20, 40}) {
      JobSpec spec;
      spec.cls = cls;
      spec.tasks = tasks;
      spec.platform = "chti";
      spec.model = "model1";
      spec.seed = derive_seed(seed, 0x407) >> 24;  // JSON numbers: < 2^53
      hot.push_back(spec);
    }
  }
  const std::uint64_t cold_base = derive_seed(seed, 0xc01d) >> 24;
  std::vector<Arrival> out(count);
  double t = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    t += -std::log(1.0 - rng.canonical()) / kRequestsPerSecond;
    Arrival& a = out[i];
    a.due_s = t;
    if (w.hot) {
      a.spec = hot[rng.index(hot.size())];
    } else {
      static constexpr int kTasks[] = {20, 40, 60};
      a.spec.cls = rng.bernoulli(0.5) ? "layered" : "irregular";
      a.spec.tasks = kTasks[rng.index(3)];
      a.spec.platform = "chti";
      a.spec.model = "model1";
      a.spec.seed = cold_base + i;
      a.spec.corpus_index = rng.index(3);
    }
    a.tenant = "tenant-" + std::to_string(rng.index(kTenants));
  }
  return out;
}

/// A directory under the output directory, removed with its contents.
class TempDir {
 public:
  explicit TempDir(std::string path) : path_(std::move(path)) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

ServeConfig daemon_config(const std::string& dir, std::uint64_t seed) {
  ServeConfig cfg;
  cfg.socket_path = dir + "/sock";
  cfg.journal_path = dir + "/journal.jsonl";
  // No EMTS time budget: every result is a pure function of its inputs.
  cfg.emts_budget_seconds = 0.0;
  cfg.base_seed = derive_seed(seed, 0xba5e);
  return cfg;
}

/// What the load generator saw of one request.
struct LiveRequest {
  bool accepted = false;
  std::uint64_t id = 0;
  double sent_s = -1.0;
  double done_s = -1.0;  ///< Sweep that saw a terminal status; -1 = lost.
  std::string status;
  std::string tier;
  int attempt = 0;
  Json result;
};

struct LiveRun {
  std::vector<LiveRequest> requests;
  std::uint64_t status_polls = 0;
  std::uint64_t fsyncs = 0;
  Json stats;  ///< The daemon's stats op after the load.
};

/// Busy-waits until `t`. Both generator threads pace themselves this way:
/// a sleeping thread lets its vCPU halt, and the wake-up latency of a
/// halted vCPU (hundreds of microseconds, varying with the host's state)
/// would land in every send time and every sweep.
void spin_until(std::chrono::steady_clock::time_point t) {
  while (std::chrono::steady_clock::now() < t) std::this_thread::yield();
}

/// Sends `arrivals` open-loop through `submitter` and polls them to
/// completion through `poller`.
LiveRun drive_live(ServeClient& submitter, ServeClient& poller,
                   const std::vector<Arrival>& arrivals) {
  LiveRun run;
  run.requests.resize(arrivals.size());

  std::mutex mu;
  std::vector<std::size_t> pending;  // Accepted, not yet seen by the poller.
  bool submit_done = false;
  std::exception_ptr submit_error;
  std::exception_ptr poll_error;

  const std::uint64_t fsyncs_before = atomic_io_stats().file_fsyncs;
  const auto t0 =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(2);
  const auto since_t0 = [t0] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
  };

  std::jthread submit_thread([&] {
    try {
      for (std::size_t i = 0; i < arrivals.size(); ++i) {
        const Arrival& a = arrivals[i];
        spin_until(t0 + std::chrono::duration_cast<std::chrono::nanoseconds>(
                            std::chrono::duration<double>(a.due_s)));
        LiveRequest& r = run.requests[i];
        r.sent_s = since_t0();
        const SubmitOutcome o = submitter.submit(a.spec, a.tenant);
        r.accepted = o.accepted;
        r.id = o.id;
        if (!o.accepted) r.status = "shed: " + o.error;
        if (o.accepted) {
          const std::lock_guard<std::mutex> lock(mu);
          pending.push_back(i);
        }
      }
    } catch (...) {
      submit_error = std::current_exception();
    }
    const std::lock_guard<std::mutex> lock(mu);
    submit_done = true;
  });

  std::jthread poll_thread([&] {
    try {
      std::vector<std::size_t> outstanding;
      double drain_deadline = -1.0;
      for (;;) {
        const auto sweep_start = std::chrono::steady_clock::now();
        bool done = false;
        {
          const std::lock_guard<std::mutex> lock(mu);
          outstanding.insert(outstanding.end(), pending.begin(),
                             pending.end());
          pending.clear();
          done = submit_done;
        }
        for (auto it = outstanding.begin(); it != outstanding.end();) {
          LiveRequest& r = run.requests[*it];
          const Json st = poller.status(r.id);
          ++run.status_polls;
          if (!st.at("ok").as_bool()) {
            r.status = "unknown id";
            it = outstanding.erase(it);
            continue;
          }
          const RequestStatus s =
              request_status_from_name(st.at("status").as_string());
          if (!is_terminal(s)) {
            ++it;
            continue;
          }
          r.done_s = since_t0();
          r.status = st.at("status").as_string();
          r.tier = st.at("tier").as_string();
          r.attempt = static_cast<int>(st.at("attempt").as_int());
          if (s == RequestStatus::kDone) r.result = poller.result(r.id);
          it = outstanding.erase(it);
        }
        if (done && outstanding.empty()) break;
        if (done) {
          if (drain_deadline < 0.0) drain_deadline = since_t0() + kDrainSeconds;
          if (since_t0() > drain_deadline) break;  // the rest are lost
        }
        spin_until(sweep_start + kSweepInterval);
      }
    } catch (...) {
      poll_error = std::current_exception();
    }
  });

  submit_thread.join();
  poll_thread.join();
  if (submit_error) std::rethrow_exception(submit_error);
  if (poll_error) std::rethrow_exception(poll_error);
  run.fsyncs = atomic_io_stats().file_fsyncs - fsyncs_before;
  run.stats = poller.stats();
  return run;
}

/// The problem a spec describes, built the way the daemon builds it.
std::shared_ptr<const ProblemInstance> build_instance(const JobSpec& spec) {
  auto graphs = corpus_by_name(spec.cls, spec.tasks, spec.corpus_index + 1,
                               spec.seed);
  return ProblemInstance::create(
      std::make_shared<const Ptg>(std::move(graphs.at(spec.corpus_index))),
      make_model(spec.model),
      std::make_shared<const Cluster>(platform_by_name(spec.platform)));
}

EmtsConfig serve_emts_config(std::uint64_t seed) {
  EmtsConfig cfg = emts5_config();
  cfg.seed = seed;
  cfg.time_budget_seconds = 0.0;
  return cfg;
}

struct TierResult {
  Allocation allocation;
  double makespan = 0.0;
};

/// What ServeServer::run_tier computes at `tier` on `engine`.
TierResult compute_tier(ServiceTier tier, EvaluationEngine& engine,
                        std::uint64_t seed) {
  TierResult out;
  switch (tier) {
    case ServiceTier::kEmts: {
      const EmtsResult r = Emts(serve_emts_config(seed)).schedule(engine);
      out.allocation = r.best_allocation;
      out.makespan = r.makespan;
      break;
    }
    case ServiceTier::kHeuristic:
      for (const char* name : {"mcpa", "hcpa"}) {
        Allocation alloc = make_heuristic(name)->allocate(*engine.instance());
        const double makespan = engine.evaluate_one(alloc);
        if (out.allocation.empty() || makespan < out.makespan) {
          out.allocation = std::move(alloc);
          out.makespan = makespan;
        }
      }
      break;
    case ServiceTier::kCpaOneShot:
      out.allocation = make_heuristic("cpa")->allocate(*engine.instance());
      out.makespan = engine.evaluate_one(out.allocation);
      break;
  }
  return out;
}

/// The result document ServeServer::run_tier returns.
Json result_json(const TierResult& r, ServiceTier tier, std::uint64_t seed) {
  JsonObject result;
  result["makespan"] = r.makespan;
  JsonArray alloc;
  alloc.reserve(r.allocation.size());
  for (const int p : r.allocation) alloc.emplace_back(p);
  result["allocation"] = Json(std::move(alloc));
  result["tier"] = service_tier_name(tier);
  result["seed"] = seed;
  return Json(std::move(result));
}

/// Shape checks on every result plus the gates shared by both modes; fills
/// attempted/failed and the live-run counters.
void check_live(const std::vector<Arrival>& arrivals, const LiveRun& run,
                std::uint64_t base_seed, std::uint64_t seed, Report& report) {
  std::unordered_map<std::uint64_t, std::pair<std::size_t, int>> shapes;
  std::size_t lost = 0;
  std::size_t failed = 0;
  std::vector<std::size_t> done;
  for (std::size_t i = 0; i < run.requests.size(); ++i) {
    const LiveRequest& r = run.requests[i];
    if (!r.accepted) {
      ++failed;
      continue;
    }
    if (r.done_s < 0.0) {
      ++lost;
      continue;
    }
    if (r.status != "done") {
      ++failed;
      continue;
    }
    done.push_back(i);
    const JobSpec& spec = arrivals[i].spec;
    const std::uint64_t key = spec.fingerprint();
    auto shape = shapes.find(key);
    if (shape == shapes.end()) {
      const auto graphs = corpus_by_name(spec.cls, spec.tasks,
                                         spec.corpus_index + 1, spec.seed);
      shape = shapes
                  .emplace(key,
                           std::make_pair(
                               graphs.at(spec.corpus_index).num_tasks(),
                               platform_by_name(spec.platform)
                                   .num_processors()))
                  .first;
    }
    const std::string where = "request " + std::to_string(i) + ": ";
    const JsonArray& alloc = r.result.at("allocation").as_array();
    report.require(alloc.size() == shape->second.first,
                   where + "allocation has " + std::to_string(alloc.size()) +
                       " genes for " + std::to_string(shape->second.first) +
                       " tasks");
    for (const Json& gene : alloc) {
      const std::int64_t p = gene.as_int();
      if (p < 1 || p > shape->second.second) {
        report.fail(where + "gene " + std::to_string(p) + " outside [1, " +
                    std::to_string(shape->second.second) + "]");
        break;
      }
    }
    const double makespan = r.result.at("makespan").as_double();
    report.require(std::isfinite(makespan) && makespan > 0.0,
                   where + "makespan " + exact(makespan));
    report.require(r.result.at("tier").as_string() == r.tier,
                   where + "result tier differs from status tier");
    const std::uint64_t expected_seed =
        request_seed(base_seed, arrivals[i].tenant, spec, r.attempt);
    report.require(r.result.at("seed").as_double() ==
                       static_cast<double>(expected_seed),
                   where + "result seed is not request_seed(...)");
  }
  report.require(lost == 0, std::to_string(lost) + " requests lost");
  report.attempted = run.requests.size();
  report.failed = failed + lost;

  // Recompute a seeded sample in-process, at each result's tier, on a
  // fresh engine configured like the daemon's pooled ones.
  EvalEngineConfig engine_cfg;
  engine_cfg.memoize = EnginePool::Config{}.memoize;
  Rng rng(derive_seed(seed, 0x5a3e));
  const std::size_t sample_size = std::min(kRecomputeSample, done.size());
  for (const std::size_t pick : rng.sample_indices(done.size(), sample_size)) {
    const std::size_t i = done[pick];
    const LiveRequest& r = run.requests[i];
    const Arrival& a = arrivals[i];
    const std::uint64_t rseed =
        request_seed(base_seed, a.tenant, a.spec, r.attempt);
    const auto instance = build_instance(a.spec);
    EvaluationEngine engine(instance, ListSchedulerOptions{}, engine_cfg);
    const ServiceTier tier = service_tier_from_name(r.tier);
    const TierResult expected = compute_tier(tier, engine, rseed);
    const std::string where = "request " + std::to_string(i) + ": ";
    report.require(result_json(expected, tier, rseed).dump() ==
                       r.result.dump(),
                   where + "daemon result differs from the in-process "
                           "recomputation");
    const Schedule schedule = engine.build_schedule(expected.allocation);
    try {
      validate_schedule(schedule, instance->graph(), expected.allocation,
                        instance->model(), instance->cluster());
    } catch (const ScheduleError& e) {
      report.fail(where + "invalid schedule: " + e.what());
    }
    const double lb = makespan_lower_bounds(instance->graph(),
                                            instance->model(),
                                            instance->cluster())
                          .combined();
    report.require(expected.makespan >= lb * (1.0 - 1e-12),
                   where + "makespan below the lower bound");
  }
  report.checks["recomputed_sample"] = static_cast<std::uint64_t>(sample_size);
  report.checks["done"] = static_cast<std::uint64_t>(done.size());

  // Counters read off the live run (reading them does not perturb it).
  const double n = static_cast<double>(run.requests.size());
  const Json& pool = run.stats.at("engine_pool");
  const double hits = pool.at("hits").as_double();
  const double misses = pool.at("misses").as_double();
  report.metric("pool.hit_frac", hits / std::max(1.0, hits + misses),
                "ratio");
  report.metric("serve.fsyncs_per_req", static_cast<double>(run.fsyncs) / n,
                "count");
  report.metric("serve.journal_bytes_per_req",
                run.stats.at("journal").at("active_bytes").as_double() / n,
                "bytes");
  report.metric("serve.status_polls_per_req",
                static_cast<double>(run.status_polls) / n, "count");
  const Json& tiers = run.stats.at("tier_completions");
  const double completed = run.stats.at("completed").as_double();
  report.metric("serve.degraded_frac",
                (tiers.at("heuristic").as_double() +
                 tiers.at("cpa_one_shot").as_double()) /
                    std::max(1.0, completed),
                "ratio");
  std::vector<double> lag_ms;
  for (std::size_t i = 0; i < run.requests.size(); ++i) {
    lag_ms.push_back((run.requests[i].sent_s - arrivals[i].due_s) * 1e3);
  }
  report.metric("loadgen.lag_ms_p99", percentile(lag_ms, 99.0), "ms");
}

void run_untraced(const ServeWorkload& w, const Options& o, Report& report) {
  const std::size_t n = static_cast<std::size_t>(
      std::max(1.0, std::round(kRequestsPerSecond * o.seconds)));
  const std::string base =
      o.out_dir + "/ptgbench-" + w.name + "-" + std::to_string(::getpid());

  // Set-up is everything before the first request is due: generating the
  // load, starting the daemon (which opens its journal) and connecting both
  // clients. It is repeated in fresh directories; the last one serves.
  std::vector<double> setup_s;
  std::vector<Arrival> arrivals;
  std::unique_ptr<TempDir> dir;
  std::unique_ptr<ServeServer> server;
  std::unique_ptr<ServeClient> submitter;
  std::unique_ptr<ServeClient> poller;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    submitter.reset();
    poller.reset();
    server.reset();
    dir.reset();
    dir = std::make_unique<TempDir>(base + "-" + std::to_string(rep));
    const WallTimer timer;
    arrivals = make_arrivals(w, o.seed, n);
    server = std::make_unique<ServeServer>(daemon_config(dir->path(), o.seed));
    server->start();
    submitter = std::make_unique<ServeClient>(server->config().socket_path);
    poller = std::make_unique<ServeClient>(server->config().socket_path);
    setup_s.push_back(timer.seconds());
  }
  report.info["journal_fs"] = filesystem_type(dir->path());

  const LiveRun run = drive_live(*submitter, *poller, arrivals);
  submitter.reset();
  poller.reset();
  server->stop();
  check_live(arrivals, run, server->config().base_seed, o.seed, report);

  std::vector<double> latency_ms;
  double last_done_s = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const LiveRequest& r = run.requests[i];
    if (r.status != "done") continue;
    latency_ms.push_back((r.done_s - arrivals[i].due_s) * 1e3);
    last_done_s = std::max(last_done_s, r.done_s);
  }
  report.require(!latency_ms.empty(), "no request completed");
  if (latency_ms.empty()) return;
  report.metric("setup_s", percentile(setup_s, 50.0), "s");
  report.metric("job_ms_p50", percentile(latency_ms, 50.0), "ms");
  report.metric("job_ms_p90", percentile(latency_ms, 90.0), "ms");
  report.metric("job_ms_p99", percentile(latency_ms, 99.0), "ms");
  report.metric("jobs_per_s",
                static_cast<double>(latency_ms.size()) / last_done_s, "1/s");
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");
  report.info["requests"] = static_cast<std::uint64_t>(n);
}

/// A connected AF_UNIX stream pair, closed on destruction.
class SocketPair {
 public:
  SocketPair() {
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds_) != 0) {
      throw std::runtime_error("socketpair failed");
    }
  }
  ~SocketPair() {
    ::close(fds_[0]);
    ::close(fds_[1]);
  }
  SocketPair(const SocketPair&) = delete;
  SocketPair& operator=(const SocketPair&) = delete;

  /// One request/response exchange: client writes, server reads and
  /// answers, client reads.
  void exchange(const Json& request, const Json& response) {
    Json got;
    write_message(fds_[0], request);
    if (!read_message(fds_[1], got)) throw std::runtime_error("socket EOF");
    write_message(fds_[1], response);
    if (!read_message(fds_[0], got)) throw std::runtime_error("socket EOF");
  }

 private:
  int fds_[2] = {-1, -1};
};

Json op_message(const char* op, std::uint64_t id) {
  JsonObject o;
  o["op"] = op;
  o["id"] = id;
  return Json(std::move(o));
}

/// The traced run: a live prefix for the daemon's own counters, then the
/// same requests re-driven one at a time through the serve layers' public
/// calls with spans, each result compared with the daemon's.
void run_traced(const ServeWorkload& w, const Options& o, Report& report) {
  const std::size_t n = static_cast<std::size_t>(
      std::max(1.0, std::round(kTracedPerSecond * o.seconds)));
  const std::vector<Arrival> arrivals = make_arrivals(w, o.seed, n);
  const TempDir dir(o.out_dir + "/ptgbench-" + w.name + "-" +
                       std::to_string(::getpid()));
  report.info["journal_fs"] = filesystem_type(dir.path());
  const ServeConfig cfg = daemon_config(dir.path(), o.seed);
  LiveRun live;
  {
    ServeServer server(cfg);
    server.start();
    ServeClient submitter(cfg.socket_path);
    ServeClient poller(cfg.socket_path);
    live = drive_live(submitter, poller, arrivals);
    server.stop();
  }
  check_live(arrivals, live, cfg.base_seed, o.seed, report);

  Tracer tracer;
  AdmissionConfig admission;
  admission.capacity = cfg.queue_capacity;
  AdmissionQueue queue(admission);
  EnginePool traced_pool(cfg.engine_pool);
  EnginePool plain_pool(cfg.engine_pool);
  RequestJournal journal(dir.path() + "/redrive.jsonl");
  SocketPair wire;
  TracedEmts sums;
  Capture capture;
  const std::size_t threads = engine_threads();
  std::size_t redriven = 0;

  for (std::size_t i = 0; i < n; ++i) {
    const LiveRequest& live_r = live.requests[i];
    if (live_r.status != "done") continue;
    const Arrival& a = arrivals[i];
    const std::uint64_t id = live_r.id;
    const ServiceTier tier = service_tier_from_name(live_r.tier);
    const std::uint64_t rseed =
        request_seed(cfg.base_seed, a.tenant, a.spec, live_r.attempt);
    const std::uint64_t key = a.spec.fingerprint();
    // build_instance() split into the daggen and core steps.
    const auto make_instance = [&] {
      std::vector<Ptg> graphs;
      {
        const auto s = tracer.span("daggen.corpus");
        graphs = corpus_by_name(a.spec.cls, a.spec.tasks,
                                a.spec.corpus_index + 1, a.spec.seed);
      }
      const auto s = tracer.span("core.instance");
      auto built = ProblemInstance::create(
          std::make_shared<const Ptg>(std::move(graphs.at(a.spec.corpus_index))),
          make_model(a.spec.model),
          std::make_shared<const Cluster>(platform_by_name(a.spec.platform)));
      built->warm();
      return built;
    };
    std::shared_ptr<const ProblemInstance> instance;
    tracer.set_job(static_cast<std::uint32_t>(i));
    EmtsResult traced;
    EmtsResult untraced;
    Json result;
    const auto run_traced_request = [&] {
      const auto request_span = tracer.span("serve.request");
      {
        const auto s = tracer.span("serve.protocol");
        JsonObject submit;
        submit["op"] = "submit";
        submit["spec"] = a.spec.to_json();
        submit["tenant"] = a.tenant;
        JsonObject ack;
        ack["id"] = id;
        wire.exchange(Json(std::move(submit)), ok_response(std::move(ack)));
      }
      {
        JournaledRequest jr;
        jr.id = id;
        jr.tenant = a.tenant;
        jr.spec = a.spec;
        const auto s = tracer.span("serve.journal");
        journal.record_submit(jr);
      }
      {
        const auto s = tracer.span("serve.admission");
        report.require(queue.push(id, a.tenant) == AdmitOutcome::kAdmitted &&
                           queue.pop() == id,
                       "admission re-drive refused a request");
      }
      {
        const auto s = tracer.span("serve.journal");
        journal.record_start(id, tier, live_r.attempt);
      }
      TierResult computed;
      {
        EnginePool::Lease lease;
        {
          auto s = tracer.span("pool.acquire_hit");
          const auto misses = traced_pool.stats().misses;
          lease = traced_pool.acquire(key, make_instance);
          if (traced_pool.stats().misses != misses) {
            s.rename("pool.acquire_miss");
          }
        }
        if (tier == ServiceTier::kEmts) {
          capture.clear();
          const auto s = tracer.span("emts.job");
          traced = traced_schedule(serve_emts_config(rseed), lease.engine(),
                                   tracer, &capture);
          computed.allocation = traced.best_allocation;
          computed.makespan = traced.makespan;
        } else {
          const auto s = tracer.span("heuristics.tier");
          computed = compute_tier(tier, lease.engine(), rseed);
        }
        instance = lease.engine().instance();
        const auto s = tracer.span("pool.release");
        lease = EnginePool::Lease();
      }
      {
        const auto s = tracer.span("serve.result");
        result = result_json(computed, tier, rseed);
      }
      {
        const auto s = tracer.span("serve.journal");
        journal.record_complete(id, result);
      }
      {
        const auto s = tracer.span("serve.admission");
        queue.release(id);
      }
      {
        const auto s = tracer.span("serve.protocol");
        JsonObject status;
        status["id"] = id;
        status["status"] = "done";
        status["tier"] = service_tier_name(tier);
        status["attempt"] = live_r.attempt;
        wire.exchange(op_message("status", id), ok_response(std::move(status)));
      }
      const auto s = tracer.span("serve.protocol");
      JsonObject fetched;
      fetched["id"] = id;
      fetched["result"] = result;
      wire.exchange(op_message("result", id), ok_response(std::move(fetched)));
    };
    const auto run_untraced_emts = [&] {
      if (tier != ServiceTier::kEmts) return;
      EnginePool::Lease lease = plain_pool.acquire(key, [&] {
        return build_instance(a.spec);
      });
      const WallTimer timer;
      untraced = Emts(serve_emts_config(rseed)).schedule(lease.engine());
      sums.untraced_s += timer.seconds();
    };
    if (i % 2 == 0) {
      run_traced_request();
      run_untraced_emts();
    } else {
      run_untraced_emts();
      run_traced_request();
    }
    const std::string where = "request " + std::to_string(i) + ": ";
    report.require(result.dump() == live_r.result.dump(),
                   where + "re-driven result differs from the daemon's");
    ++redriven;
    if (tier != ServiceTier::kEmts) continue;
    const std::string diff = same_result(untraced, traced);
    report.require(diff.empty(), where + "traced run differs from "
                                         "Emts::schedule: " + diff);
    std::string mismatch;
    const ReplayTimes times =
        replay(capture, instance, serve_emts_config(rseed), threads, mismatch);
    report.require(mismatch.empty(), where + mismatch);
    sums.add(traced, times);
  }
  report.checks["redriven"] = static_cast<std::uint64_t>(redriven);
  report.require(sums.jobs > 0, "no EMTS-tier request to trace");

  report_layers(tracer, "serve.request", sums, threads, report);
  const auto totals = tracer.totals();
  // Mean duration (children included) per span, or per request.
  const auto mean_span = [&](const char* span, const char* metric,
                             double scale, const char* unit,
                             std::size_t per = 0) {
    const auto it = totals.find(span);
    if (it == totals.end()) return;
    const std::size_t count = per > 0 ? per : it->second.count;
    report.metric(metric,
                  it->second.total_s * scale / static_cast<double>(count),
                  unit);
  };
  mean_span("pool.acquire_hit", "pool.acquire_hit_us", 1e6, "us");
  mean_span("pool.acquire_miss", "pool.acquire_miss_ms", 1e3, "ms");
  mean_span("serve.journal", "serve.journal_append_ms", 1e3, "ms");
  mean_span("serve.protocol", "serve.protocol_rtt_us", 1e6, "us");
  mean_span("serve.admission", "serve.admission_us", 1e6, "us", redriven);
  report.info["requests"] = static_cast<std::uint64_t>(n);
  tracer.write_chrome_trace(o.out_dir + "/trace-" + w.name + ".json");
}

}  // namespace

bool is_serve_workload(const std::string& name) {
  return find_workload(name) != nullptr;
}

void run_serve(const Options& options, Report& report) {
  const ServeWorkload& w = *find_workload(options.workload);
  if (options.trace) {
    run_traced(w, options, report);
  } else {
    run_untraced(w, options, report);
  }
}

}  // namespace ptgbench
