// End-to-end daemon tests over a real AF_UNIX socket: the happy path,
// backpressure under a tiny admission queue, deadline expiry, user
// cancellation, forced degradation tiers, and bit-identical results for
// concurrent identical submissions.

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "serve/client.hpp"
#include "serve/server.hpp"

namespace ptgsched::serve {
namespace {

namespace fs = std::filesystem;

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Socket paths must fit sun_path (108 bytes): keep them short.
    dir_ = fs::path("/tmp") /
           ("ptgsrv_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()
                ->current_test_info()
                ->name());
    fs::create_directories(dir_);
    config_.socket_path = (dir_ / "sock").string();
    config_.journal_path = (dir_ / "journal.jsonl").string();
    config_.queue_capacity = 16;
    config_.workers = 2;
    config_.base_seed = 17;
    config_.emts_budget_seconds = 0.0;  // tiny graphs: no budget needed
  }
  void TearDown() override {
    if (server_) server_->stop();
    fs::remove_all(dir_);
  }

  void start() {
    server_ = std::make_unique<ServeServer>(config_);
    server_->start();
  }

  static JobSpec tiny_spec(std::uint64_t seed = 5) {
    JobSpec spec;
    spec.cls = "layered";
    spec.tasks = 20;
    spec.platform = "chti";
    spec.model = "model1";
    spec.seed = seed;
    return spec;
  }

  // Specs that hold the single worker for a known time. Measured on a
  // 4-vCPU Xeon host, submit to done with one worker and no deadline:
  // irregular-4000 took 284-434 ms over 10 runs, irregular-8000 took
  // 1258-1672 ms. The tests below size them against their race windows
  // with a margin of at least 10x.
  static JobSpec heavy_spec(int tasks) {
    JobSpec spec = tiny_spec();
    spec.cls = "irregular";
    spec.tasks = tasks;
    return spec;
  }

  fs::path dir_;
  ServeConfig config_;
  std::unique_ptr<ServeServer> server_;
};

TEST_F(ServerTest, SubmitStatusResultHappyPath) {
  start();
  ServeClient client(config_.socket_path);

  const SubmitOutcome outcome = client.submit(tiny_spec(), "tenant-a");
  ASSERT_TRUE(outcome.accepted);
  ASSERT_GT(outcome.id, 0u);

  const auto final_status = client.wait_terminal(outcome.id, 30.0);
  ASSERT_TRUE(final_status.has_value());
  EXPECT_EQ("done", final_status->at("status").as_string());

  const Json result = client.result(outcome.id);
  EXPECT_GT(result.at("makespan").as_double(), 0.0);
  EXPECT_EQ("emts", result.at("tier").as_string());
  EXPECT_EQ(20u, result.at("allocation").as_array().size());

  const Json stats = client.stats();
  EXPECT_EQ(1, stats.at("completed").as_int());
  EXPECT_EQ(0, stats.at("shed").as_int());
}

TEST_F(ServerTest, UnknownOpsAndIdsAreCleanErrors) {
  start();
  ServeClient client(config_.socket_path);

  Json bad_op = Json::object();
  bad_op.as_object()["op"] = "frobnicate";
  EXPECT_EQ(kErrBadRequest,
            client.request(bad_op).at("error").as_string());

  EXPECT_EQ(kErrUnknownId, client.status(999).at("error").as_string());
  EXPECT_THROW((void)client.result(999), std::runtime_error);

  // Malformed envelope: an op-less object is a bad request, and the
  // connection survives to serve the next message.
  EXPECT_FALSE(client.request(Json::object()).at("ok").as_bool());
  EXPECT_TRUE(client.stats().at("ok").as_bool());
}

TEST_F(ServerTest, BackpressureRejectsWithRetryAfter) {
  config_.queue_capacity = 1;
  config_.workers = 1;
  start();
  ServeClient client(config_.socket_path);

  // Park the single worker on a heavyweight request, then overfill the
  // one-slot queue: the second tiny submission must shed immediately
  // with a usable retry hint. From the heavy submit to the first shed
  // reply took at most 11.5 ms over 100 runs on the host measured above
  // (p50 5.5 ms), so the worker stays busy through it by 24x.
  const SubmitOutcome busy = client.submit(heavy_spec(4000), "t");
  ASSERT_TRUE(busy.accepted);

  std::vector<SubmitOutcome> accepted;
  SubmitOutcome shed;
  bool saw_shed = false;
  for (int i = 0; i < 8 && !saw_shed; ++i) {
    const SubmitOutcome o = client.submit(tiny_spec(5), "t");
    if (o.accepted) {
      accepted.push_back(o);
    } else {
      shed = o;
      saw_shed = true;
    }
  }
  ASSERT_TRUE(saw_shed) << "queue of 1 never filled across 8 submits";
  EXPECT_EQ(kErrOverloaded, shed.error);
  EXPECT_GE(shed.retry_after_seconds, 0.05);
  EXPECT_LE(shed.retry_after_seconds, 30.0);

  // The accepted requests all finish; the shed one cost us nothing.
  for (const SubmitOutcome& o : accepted) {
    const auto final_status = client.wait_terminal(o.id, 60.0);
    ASSERT_TRUE(final_status.has_value());
    EXPECT_EQ("done", final_status->at("status").as_string());
  }
  ASSERT_TRUE(client.wait_terminal(busy.id, 120.0).has_value());
  const Json stats = client.stats();
  EXPECT_GE(stats.at("shed").as_int(), 1);

  // submit_with_retry rides out any remaining backpressure window.
  const SubmitOutcome retried =
      client.submit_with_retry(tiny_spec(5), "t", 0.0, 10);
  EXPECT_TRUE(retried.accepted);
}

TEST_F(ServerTest, DeadlineExpiryCancelsWithDeadlineReason) {
  config_.workers = 1;
  config_.emts_budget_seconds = 30.0;  // far beyond the deadline
  start();
  ServeClient client(config_.socket_path);

  // A heavyweight spec with a 50 ms deadline: the watchdog, which scans
  // every 20 ms, trips it by ~70 ms, while the run needs at least
  // 1258 ms (18x) to finish.
  const SubmitOutcome outcome = client.submit(heavy_spec(8000), "t", 0.05);
  ASSERT_TRUE(outcome.accepted);

  const auto final_status = client.wait_terminal(outcome.id, 30.0);
  ASSERT_TRUE(final_status.has_value());
  EXPECT_EQ("cancelled", final_status->at("status").as_string());
  EXPECT_EQ("deadline", final_status->at("detail").as_string());
  EXPECT_THROW((void)client.result(outcome.id), std::runtime_error);
}

TEST_F(ServerTest, UserCancelOfAQueuedRequest) {
  config_.workers = 1;
  start();
  ServeClient client(config_.socket_path);

  // Park a slow request on the single worker, then cancel one behind it.
  // From the heavy submit to the cancel reply took at most 23 ms over 150
  // runs on the host measured above (p50 4.9 ms), so the tiny request is
  // still queued when the cancel arrives: the heavy run outlasts it 12x.
  const SubmitOutcome running = client.submit(heavy_spec(4000), "t");
  ASSERT_TRUE(running.accepted);
  const SubmitOutcome queued = client.submit(tiny_spec(), "t");
  ASSERT_TRUE(queued.accepted);

  const Json cancelled = client.cancel(queued.id);
  EXPECT_EQ("cancelled", cancelled.at("status").as_string());
  EXPECT_EQ("user_cancel", cancelled.at("detail").as_string());

  // The running request is unaffected.
  const auto final_status = client.wait_terminal(running.id, 30.0);
  ASSERT_TRUE(final_status.has_value());
  EXPECT_EQ("done", final_status->at("status").as_string());
}

TEST_F(ServerTest, ConcurrentIdenticalSubmissionsAreBitIdentical) {
  config_.workers = 4;
  start();

  // Four clients race the same (tenant, spec): every result — allocation
  // and %.17g-serialized makespan — must be byte-for-byte identical,
  // whichever worker or pooled engine served it.
  constexpr int kClients = 4;
  std::vector<std::string> dumps(kClients);
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([this, i, &dumps] {
      ServeClient client(config_.socket_path);
      const SubmitOutcome o =
          client.submit_with_retry(tiny_spec(9), "tenant-x");
      ASSERT_TRUE(o.accepted);
      const auto final_status = client.wait_terminal(o.id, 60.0);
      ASSERT_TRUE(final_status.has_value());
      ASSERT_EQ("done", final_status->at("status").as_string());
      dumps[static_cast<std::size_t>(i)] = client.result(o.id).dump();
    });
  }
  for (auto& t : threads) t.join();
  for (int i = 1; i < kClients; ++i) {
    EXPECT_EQ(dumps[0], dumps[static_cast<std::size_t>(i)])
        << "client " << i << " saw a different result";
  }

  // The engine pool served repeats from warm engines.
  ServeClient client(config_.socket_path);
  const Json stats = client.stats();
  EXPECT_GE(stats.at("engine_pool").at("hits").as_int() +
                stats.at("engine_pool").at("misses").as_int(),
            kClients);
}

TEST_F(ServerTest, DegradedTiersStillReturnValidSchedules) {
  // A vanishing p95 budget makes the *first* completion (whatever its
  // real latency) count as full saturation, so every later request is
  // deterministically served at the bottom tier.
  config_.tiers.p95_budget_seconds = 1e-6;
  start();
  ServeClient client(config_.socket_path);

  const SubmitOutcome first = client.submit(tiny_spec(), "t");
  ASSERT_TRUE(first.accepted);
  auto final_status = client.wait_terminal(first.id, 30.0);
  ASSERT_TRUE(final_status.has_value());
  ASSERT_EQ("done", final_status->at("status").as_string());
  EXPECT_EQ("emts", client.result(first.id).at("tier").as_string());

  const SubmitOutcome degraded = client.submit(tiny_spec(), "t");
  ASSERT_TRUE(degraded.accepted);
  final_status = client.wait_terminal(degraded.id, 30.0);
  ASSERT_TRUE(final_status.has_value());
  ASSERT_EQ("done", final_status->at("status").as_string());
  const Json result = client.result(degraded.id);
  // p95/budget >> shed_high: bottom tier, still a valid schedule.
  EXPECT_EQ("cpa_one_shot", result.at("tier").as_string());
  EXPECT_GT(result.at("makespan").as_double(), 0.0);
  EXPECT_EQ(20u, result.at("allocation").as_array().size());

  const Json stats = client.stats();
  const Json& tiers = stats.at("tier_completions");
  EXPECT_EQ(1, tiers.at("emts").as_int());
  EXPECT_EQ(1, tiers.at("cpa_one_shot").as_int());
  EXPECT_EQ("cpa_one_shot", stats.at("current_tier").as_string());
}

TEST_F(ServerTest, ShutdownOpStopsTheDaemon) {
  start();
  ServeClient client(config_.socket_path);
  EXPECT_TRUE(client.shutdown().at("ok").as_bool());
  server_->wait();
  EXPECT_TRUE(server_->stopped());
  // The socket is gone; new connections fail.
  EXPECT_THROW(ServeClient{config_.socket_path}, std::runtime_error);
}

}  // namespace
}  // namespace ptgsched::serve
