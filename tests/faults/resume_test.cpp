// Kill-and-resume tests (ctest label "faults"): a campaign killed mid-run
// by a real SIGTERM leaves a durable checkpoint journal behind, and
// --resume completes it with a report identical to an uninterrupted
// baseline (modulo the wall-clock seconds recorded while units ran). A
// journal append that fails ends the campaign with its IoError, so the
// journal never silently misses a unit the report counted.

#include <gtest/gtest.h>

#include <csignal>
#include <filesystem>
#include <fstream>
#include <set>

#include "exp/campaign.hpp"
#include "support/atomic_io.hpp"
#include "support/chaos.hpp"
#include "support/error_context.hpp"

namespace ptgsched {
namespace {

CampaignConfig tiny_campaign(const std::string& dir) {
  CampaignConfig cfg;
  cfg.instances = 2;
  cfg.num_tasks = 20;
  cfg.seed = 13;
  cfg.include_emts10 = false;
  cfg.threads = 0;  // keep telemetry counters deterministic
  cfg.output_dir = dir;
  return cfg;
}

/// Zero the wall-clock-dependent values so reports from different runs can
/// be compared bit-for-bit on everything else.
Json normalized(const Json& j) {
  static const std::set<std::string> kTimeKeys = {
      "mean_seconds", "sd_seconds", "mean_eval_seconds"};
  if (j.is_object()) {
    Json o = Json::object();
    for (const auto& [key, value] : j.as_object()) {
      if (kTimeKeys.count(key) != 0 && value.is_number()) {
        o.set(key, 0.0);
      } else {
        o.set(key, normalized(value));
      }
    }
    return o;
  }
  if (j.is_array()) {
    Json a = Json::array();
    for (const Json& v : j.as_array()) a.push_back(normalized(v));
    return a;
  }
  return j;
}

std::filesystem::path fresh_dir(const std::string& name) {
  const auto dir = std::filesystem::temp_directory_path() / name;
  std::filesystem::remove_all(dir);
  return dir;
}

TEST(Resume, SigtermKillAndResumeMatchesUninterruptedBaseline) {
  const auto base_dir = fresh_dir("ptgsched_resume_base");
  const auto kill_dir = fresh_dir("ptgsched_resume_kill");

  // Uninterrupted baseline.
  const Json baseline = run_campaign(tiny_campaign(base_dir.string()));
  EXPECT_FALSE(baseline.at("cancelled").as_bool());
  EXPECT_EQ(baseline.at("failures").size(), 0u);

  // Interrupted run: a genuine SIGTERM through the installed handler after
  // the 5th completed unit (raised from the progress callback, so the kill
  // lands at a deterministic unit boundary).
  {
    CancellationToken cancel;
    install_signal_cancellation(&cancel);
    CampaignConfig cfg = tiny_campaign(kill_dir.string());
    cfg.cancel = &cancel;
    std::size_t units = 0;
    const Json partial = run_campaign(
        cfg, [&](const std::string&, std::size_t, std::size_t) {
          if (++units == 5) std::raise(SIGTERM);
        });
    install_signal_cancellation(nullptr);
    EXPECT_TRUE(cancel.cancelled());
    EXPECT_TRUE(partial.at("cancelled").as_bool());
    // The partial report was still written (atomically), and the journal
    // holds the completed units.
    EXPECT_TRUE(
        std::filesystem::exists(kill_dir / "campaign_report.json"));
    EXPECT_TRUE(std::filesystem::exists(kill_dir / kCampaignCheckpointFile));
  }

  // Resume: journaled units replay verbatim, the rest run fresh.
  CampaignConfig resume_cfg = tiny_campaign(kill_dir.string());
  resume_cfg.resume = true;
  const Json resumed = run_campaign(resume_cfg);
  EXPECT_FALSE(resumed.at("cancelled").as_bool());
  EXPECT_EQ(resumed.at("failures").size(), 0u);

  // Identical modulo recorded wall times.
  EXPECT_EQ(normalized(resumed).dump(2), normalized(baseline).dump(2));

  // The on-disk report matches the returned one.
  const Json on_disk =
      Json::parse_file((kill_dir / "campaign_report.json").string());
  EXPECT_EQ(normalized(on_disk).dump(2), normalized(baseline).dump(2));

  std::filesystem::remove_all(base_dir);
  std::filesystem::remove_all(kill_dir);
}

TEST(Resume, ToleratesTornFinalJournalLine) {
  const auto dir = fresh_dir("ptgsched_resume_torn");
  const Json baseline = run_campaign(tiny_campaign(dir.string()));

  // Simulate a crash mid-append: a half-written unit line without a
  // trailing newline.
  {
    std::ofstream out(dir / kCampaignCheckpointFile,
                      std::ios::app | std::ios::binary);
    out << R"({"unit": {"pha)";
  }

  CampaignConfig cfg = tiny_campaign(dir.string());
  cfg.resume = true;
  const Json resumed = run_campaign(cfg);
  EXPECT_EQ(normalized(resumed).dump(2), normalized(baseline).dump(2));
  std::filesystem::remove_all(dir);
}

TEST(Resume, RejectsCheckpointFromDifferentConfiguration) {
  const auto dir = fresh_dir("ptgsched_resume_mismatch");
  (void)run_campaign(tiny_campaign(dir.string()));

  CampaignConfig cfg = tiny_campaign(dir.string());
  cfg.seed = 14;  // different campaign; its journal must not be replayed
  cfg.resume = true;
  EXPECT_THROW((void)run_campaign(cfg), LoadError);
  std::filesystem::remove_all(dir);
}

TEST(Resume, GapJournalFailureAbortsInsteadOfCountingTwice) {
  // A failed journal append of a finished unit must end the campaign with
  // its IoError. Retrying the unit instead would add its gap a second time
  // and leave the journal missing the unit, with no failure reported.
  const auto dir = fresh_dir("ptgsched_resume_gap_fsync");
  CampaignConfig cfg;
  cfg.instances = 1;
  cfg.num_tasks = 10;
  cfg.seed = 5;
  cfg.include_emts10 = false;
  cfg.max_retries = 1;
  cfg.output_dir = dir.string();
  const std::string gap_key = "optimality_gap_emts5_model2_irregular_grelon";

  // A clean run under a zero-rate policy counts the journal fsyncs; the
  // gap phase reports progress right after journaling its first unit.
  std::uint64_t gap_fsync = 0;
  std::uint64_t total_fsyncs = 0;
  {
    ChaosPolicy counting{ChaosConfig{}};
    ScopedChaos scope(counting);
    bool seen = false;
    const Json clean = run_campaign(
        cfg, [&](const std::string& phase, std::size_t, std::size_t) {
          if (phase == "gap" && !seen) {
            seen = true;
            gap_fsync = counting.ops(ChaosSite::kJournalFsync) - 1;
          }
        });
    ASSERT_TRUE(seen);
    total_fsyncs = counting.ops(ChaosSite::kJournalFsync);
    ASSERT_EQ(clean.at(gap_key).at("n").as_int(), 1);
  }

  // A chaos seed that fails that fsync and no other, including the one
  // extra append a retried unit would make.
  ChaosSiteConfig rates;
  rates.fail_rate = 0.05;
  ChaosConfig chaos;
  bool found = false;
  for (std::uint64_t seed = 1; seed <= 1000 && !found; ++seed) {
    chaos = ChaosConfig{};
    chaos.seed = seed;
    chaos.set_sites({ChaosSite::kJournalFsync}, rates);
    ChaosPolicy probe(chaos);
    found = true;
    for (std::uint64_t op = 0; op <= total_fsyncs && found; ++op) {
      const bool fails =
          probe.decide(ChaosSite::kJournalFsync) == ChaosAction::kFail;
      found = fails == (op == gap_fsync);
    }
  }
  ASSERT_TRUE(found);

  std::filesystem::remove_all(dir);
  ChaosPolicy policy(chaos);
  ScopedChaos scope(policy);
  try {
    const Json report = run_campaign(cfg);
    ADD_FAILURE() << "campaign survived a failed journal append: gap n = "
                  << report.at(gap_key).at("n").as_int() << ", failures "
                  << report.at("failures").dump(0);
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find(kCampaignCheckpointFile),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(policy.injected(ChaosSite::kJournalFsync, ChaosAction::kFail),
            1u);
  std::filesystem::remove_all(dir);
}

TEST(Resume, FreshRunTruncatesStaleJournal) {
  const auto dir = fresh_dir("ptgsched_resume_truncate");
  (void)run_campaign(tiny_campaign(dir.string()));

  // A non-resume run over the same directory must not replay old units:
  // the journal is truncated and rewritten from scratch.
  const Json again = run_campaign(tiny_campaign(dir.string()));
  EXPECT_FALSE(again.at("cancelled").as_bool());

  // And the rewritten journal resumes cleanly.
  CampaignConfig cfg = tiny_campaign(dir.string());
  cfg.resume = true;
  const Json resumed = run_campaign(cfg);
  EXPECT_EQ(normalized(resumed).dump(2), normalized(again).dump(2));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace ptgsched
