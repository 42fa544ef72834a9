#pragma once
// Shared pieces of the ptgbench workloads: run options, the report every
// workload fills (metrics, gate failures, evidence), and the host record.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "support/json.hpp"
#include "trace.hpp"

namespace ptgbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  /// Nominal run length. Offline workloads turn it into a job count at a
  /// fixed nominal rate, so two builds always do the same work; serve
  /// workloads send rate x seconds requests.
  double seconds = 20.0;
  bool trace = false;
  std::string out_dir = "build-bench";  ///< Journals, sockets, trace files.
  std::string goldens;                  ///< Golden checksum file, or empty.
};

/// What one workload run measured and checked.
class Report {
 public:
  void metric(const std::string& name, double value, const char* unit) {
    metrics_[name] = {value, unit};
  }
  /// Records a failed correctness gate; any failure voids the run.
  void fail(const std::string& what);
  /// fail() unless `ok`.
  void require(bool ok, const std::string& what) {
    if (!ok) fail(what);
  }

  [[nodiscard]] bool correct() const noexcept { return failures_.empty(); }
  [[nodiscard]] const std::vector<std::string>& failures() const noexcept {
    return failures_;
  }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Evidence behind the gates (checksums, sample sizes).
  ptgsched::JsonObject checks;
  /// Facts about the run that are not metrics (percentiles used, media).
  ptgsched::JsonObject info;
  /// Per span name totals of the traced run.
  ptgsched::JsonObject ledger;

  [[nodiscard]] ptgsched::Json metrics_json() const;

 private:
  struct Metric {
    double value = 0.0;
    const char* unit = "";
  };
  std::map<std::string, Metric> metrics_;
  std::vector<std::string> failures_;
};

/// CPUs this process may run on.
[[nodiscard]] std::size_t cpu_count();

/// Engine threads for the multi-threaded workloads: min(4, cpu_count()).
[[nodiscard]] std::size_t engine_threads();

/// Peak resident set of this process in MiB (getrusage ru_maxrss).
[[nodiscard]] double peak_rss_mb();

/// Filesystem type of `path` ("ext4", "tmpfs", ...; hex magic otherwise).
[[nodiscard]] std::string filesystem_type(const std::string& path);

/// Host, build and environment record written into every result.
[[nodiscard]] ptgsched::Json host_record(bool kernel_env_was_set,
                                         const std::string& kernel_env);

/// "%.17g" of a double, the round-trip form goldens are stored in.
[[nodiscard]] std::string exact(double x);

/// The golden entry for (workload, seed, jobs) in `path`, or null.
[[nodiscard]] ptgsched::Json find_golden(const std::string& path,
                                         const std::string& workload,
                                         std::uint64_t seed,
                                         std::size_t jobs);

/// Self time per span name of a traced run, from Tracer::totals(), in the
/// ledger shape {"name": {"count", "total_ms", "self_ms"}}.
[[nodiscard]] ptgsched::JsonObject ledger_of(const Tracer& tracer);

// The workloads (offline.cpp, serve_load.cpp).
void run_offline(const Options& options, Report& report);
void run_serve(const Options& options, Report& report);
[[nodiscard]] bool is_offline_workload(const std::string& name);
[[nodiscard]] bool is_serve_workload(const std::string& name);

/// The drift check behind the benchmark's ctest: the traced recomposition
/// must equal Emts::schedule on `instances` generated instances of each
/// offline workload's shape. Returns the number of mismatches.
[[nodiscard]] int check_recomposition(std::size_t instances);

}  // namespace ptgbench
