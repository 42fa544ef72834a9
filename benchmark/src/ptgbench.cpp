// ptgbench: the end-to-end benchmark of ptgsched (see benchmark/README.md).
//
//   ptgbench --workload emts10-paper --seed 42 --seconds 20 --trace 0
//   ptgbench --check-recomposition 8
//
// Runs one workload in this process through the library's public entry
// points, checks every output, and prints a metric table followed by one
// JSON record as the last line of stdout: workload, seed, seconds, trace,
// host, correct, attempted, failed, metrics, checks, info and (traced runs)
// the span ledger. A failed correctness gate prints the failures to stderr
// and exits 1 without printing the record.

#include <cstdio>
#include <string>

#include "common.hpp"
#include "support/cli.hpp"

using namespace ptgsched;
using namespace ptgbench;

int main(int argc, char** argv) {
  CliParser cli("ptgbench",
                "Run one ptgsched benchmark workload and print its metrics.");
  cli.add_option("workload",
                 "emts10-paper | emts-wide | serve-hot | serve-cold", "");
  cli.add_option("seed", "Input seed (42 default, 7 held out)", "42");
  cli.add_option("seconds", "Nominal run length in seconds", "20");
  cli.add_option("trace", "1 = traced per-layer run, 0 = untraced", "0");
  cli.add_option("out-dir", "Directory for journals, sockets and traces",
                 "build-bench");
  cli.add_option("goldens", "Golden checksum file (empty = none)", "");
  cli.add_flag("kernel-env-set",
               "PTGSCHED_KERNEL was set (and unset) by the caller");
  cli.add_option("kernel-env", "The value PTGSCHED_KERNEL had", "");
  cli.add_option("check-recomposition",
                 "Check the traced pipeline against Emts::schedule on this "
                 "many instances per offline workload, then exit",
                 "0");
  try {
    if (!cli.parse(argc, argv)) return 0;
    const auto recompose_n = cli.get_int("check-recomposition");
    if (recompose_n > 0) {
      const int mismatches =
          check_recomposition(static_cast<std::size_t>(recompose_n));
      std::printf("recomposition: %d mismatches\n", mismatches);
      return mismatches == 0 ? 0 : 1;
    }

    Options o;
    o.workload = cli.get("workload");
    o.seed = cli.get_u64("seed");
    o.seconds = cli.get_double("seconds");
    o.trace = cli.get_int("trace") != 0;
    o.out_dir = cli.get("out-dir");
    o.goldens = cli.get("goldens");
    const bool offline = is_offline_workload(o.workload);
    if (!offline && !is_serve_workload(o.workload)) {
      throw CliError("unknown --workload '" + o.workload + "'");
    }
    if (!(o.seconds > 0.0)) throw CliError("--seconds must be positive");

    const Json host =
        host_record(cli.get_flag("kernel-env-set"), cli.get("kernel-env"));
    Report report;
    if (offline) {
      run_offline(o, report);
    } else {
      run_serve(o, report);
    }
    if (!report.correct()) {
      for (const std::string& f : report.failures()) {
        std::fprintf(stderr, "ptgbench: %s: gate failed: %s\n",
                     o.workload.c_str(), f.c_str());
      }
      return 1;
    }

    const Json metrics = report.metrics_json();
    std::printf("%s seed=%llu trace=%d attempted=%llu failed=%llu\n",
                o.workload.c_str(), static_cast<unsigned long long>(o.seed),
                o.trace ? 1 : 0,
                static_cast<unsigned long long>(report.attempted),
                static_cast<unsigned long long>(report.failed));
    for (const auto& [name, m] : metrics.as_object()) {
      std::printf("  %-30s %16.6f %s\n", name.c_str(),
                  m.at("value").as_double(), m.at("unit").as_string().c_str());
    }

    JsonObject record;
    record["workload"] = o.workload;
    record["seed"] = o.seed;
    record["seconds"] = o.seconds;
    record["trace"] = o.trace;
    record["host"] = host;
    record["correct"] = true;
    record["attempted"] = report.attempted;
    record["failed"] = report.failed;
    record["metrics"] = metrics;
    record["checks"] = Json(report.checks);
    record["info"] = Json(report.info);
    if (o.trace) record["ledger"] = Json(report.ledger);
    std::printf("%s\n", Json(std::move(record)).dump().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ptgbench: %s\n", e.what());
    return 1;
  }
}
