#include "common.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <sys/vfs.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "core/problem_instance.hpp"
#include "daggen/corpus.hpp"
#include "eval/evaluation_engine.hpp"

#ifndef PTGBENCH_COMPILER
#define PTGBENCH_COMPILER "unknown"
#endif
#ifndef PTGBENCH_BUILD_TYPE
#define PTGBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PTGBENCH_SIMD
#define PTGBENCH_SIMD 0
#endif

namespace ptgbench {

using namespace ptgsched;

void Report::fail(const std::string& what) {
  // Keep the first 20 messages; one broken invariant usually repeats on
  // every job.
  if (failures_.size() < 20) failures_.push_back(what);
  if (failures_.size() == 20) failures_.push_back("(further failures elided)");
}

Json Report::metrics_json() const {
  JsonObject out;
  for (const auto& [name, m] : metrics_) {
    JsonObject entry;
    entry["value"] = m.value;
    entry["unit"] = m.unit;
    out[name] = Json(std::move(entry));
  }
  return Json(std::move(out));
}

std::size_t cpu_count() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

std::size_t engine_threads() { return std::min<std::size_t>(4, cpu_count()); }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string filesystem_type(const std::string& path) {
  struct statfs st {};
  if (statfs(path.c_str(), &st) != 0) return "unknown";
  const auto magic = static_cast<unsigned long>(st.f_type);
  switch (magic) {
    case 0xEF53UL: return "ext4";
    case 0x01021994UL: return "tmpfs";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    case 0x794C7630UL: return "overlayfs";
    case 0x6969UL: return "nfs";
    default: break;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%lx", magic);
  return buf;
}

namespace {

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  unsigned max_leaf = __get_cpuid_max(0x80000000U, nullptr);
  if (max_leaf >= 0x80000004U) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002U + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const auto first = s.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : s.substr(first);
  }
#endif
  return "unknown";
}

const char* kernel_mode_name(KernelMode mode) {
  switch (mode) {
    case KernelMode::Full: return "full";
    case KernelMode::Incremental: return "incremental";
    case KernelMode::Batched: return "batched";
  }
  return "unknown";
}

}  // namespace

Json host_record(bool kernel_env_was_set, const std::string& kernel_env) {
  // The kernel mode every engine of this process resolves to (from
  // PTGSCHED_KERNEL when no config pins it), read off a tiny engine.
  auto graphs = layered_corpus(10, 1, 1);
  auto instance = ProblemInstance::create(
      std::make_shared<const Ptg>(std::move(graphs[0])), make_model("model1"),
      std::make_shared<const Cluster>(chti()));
  const EvaluationEngine engine(instance);

  JsonObject host;
  host["nproc"] = static_cast<std::uint64_t>(cpu_count());
  host["engine_threads"] = static_cast<std::uint64_t>(engine_threads());
  host["cpu_model"] = cpu_model();
  host["compiler"] = PTGBENCH_COMPILER;
  host["build_type"] = PTGBENCH_BUILD_TYPE;
  host["ptgsched_simd"] = PTGBENCH_SIMD != 0;
  host["kernel_mode"] = kernel_mode_name(engine.kernel_mode());
  host["ptgsched_kernel_env_was_set"] = kernel_env_was_set;
  if (kernel_env_was_set) host["ptgsched_kernel_env_value"] = kernel_env;
  const char* live = std::getenv("PTGSCHED_KERNEL");
  host["ptgsched_kernel_env_live"] = live == nullptr ? Json() : Json(live);
  return Json(std::move(host));
}

std::string exact(double x) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", x);
  return buf;
}

Json find_golden(const std::string& path, const std::string& workload,
                 std::uint64_t seed, std::size_t jobs) {
  if (path.empty()) return Json();
  const Json doc = Json::parse_file(path);
  if (!doc.contains(workload)) return Json();
  const std::string key =
      "seed=" + std::to_string(seed) + " jobs=" + std::to_string(jobs);
  const Json& entries = doc.at(workload);
  return entries.contains(key) ? entries.at(key) : Json();
}

JsonObject ledger_of(const Tracer& tracer) {
  JsonObject out;
  for (const auto& [name, t] : tracer.totals()) {
    JsonObject entry;
    entry["count"] = static_cast<std::uint64_t>(t.count);
    entry["total_ms"] = t.total_s * 1e3;
    entry["self_ms"] = t.self_s * 1e3;
    out[name] = Json(std::move(entry));
  }
  return out;
}

}  // namespace ptgbench
