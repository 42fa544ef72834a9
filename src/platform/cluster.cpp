#include "platform/cluster.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "support/error_context.hpp"

namespace ptgsched {

namespace {

// Validation failure for a named field. Construction sites convert it to
// PlatformError; Cluster::load converts it to LoadError carrying the file
// path and the offending key.
struct FieldError {
  std::string key;
  std::string detail;
};

/// Row-major offset of cell (i, j) in a p x p link-cost matrix.
std::size_t link_index(int i, int j, int p) {
  return static_cast<std::size_t>(i) * static_cast<std::size_t>(p) +
         static_cast<std::size_t>(j);
}

void check_speeds(const std::vector<double>& speeds, int p) {
  if (speeds.empty()) return;
  if (static_cast<int>(speeds.size()) != p) {
    throw FieldError{"speeds",
                     "expected " + std::to_string(p) + " entries, got " +
                         std::to_string(speeds.size())};
  }
  for (std::size_t j = 0; j < speeds.size(); ++j) {
    const double s = speeds[j];
    if (!std::isfinite(s) || !(s > 0.0)) {
      throw FieldError{"speeds[" + std::to_string(j) + "]",
                       "relative speed must be finite and positive"};
    }
  }
}

void check_comm(const std::vector<double>& comm, int p) {
  if (comm.empty()) return;
  const auto pp = static_cast<std::size_t>(p) * static_cast<std::size_t>(p);
  if (comm.size() != pp) {
    throw FieldError{"comm_costs",
                     "expected a " + std::to_string(p) + "x" +
                         std::to_string(p) + " matrix (" +
                         std::to_string(pp) + " entries), got " +
                         std::to_string(comm.size())};
  }
  for (int i = 0; i < p; ++i) {
    for (int j = 0; j < p; ++j) {
      const double c = comm[link_index(i, j, p)];
      const std::string cell = "comm_costs[" + std::to_string(i) + "][" +
                               std::to_string(j) + "]";
      if (!std::isfinite(c) || c < 0.0) {
        throw FieldError{cell, "link cost must be finite and non-negative"};
      }
      if (i == j && c != 0.0) {
        throw FieldError{cell, "diagonal (same-processor) cost must be 0"};
      }
      const double mirror = comm[link_index(j, i, p)];
      if (c != mirror) {
        throw FieldError{cell, "matrix must be symmetric (differs from [" +
                                   std::to_string(j) + "][" +
                                   std::to_string(i) + "])"};
      }
    }
  }
}

[[nodiscard]] std::vector<double> doubles_from_json(const Json& arr,
                                                    const std::string& key) {
  if (!arr.is_array()) {
    throw FieldError{key, "expected an array of numbers"};
  }
  std::vector<double> out;
  out.reserve(arr.as_array().size());
  for (const Json& v : arr.as_array()) {
    if (!v.is_number()) throw FieldError{key, "expected an array of numbers"};
    out.push_back(v.as_double());
  }
  return out;
}

}  // namespace

Cluster::Cluster(std::string name, int num_processors, double gflops)
    : name_(std::move(name)), p_(num_processors), gflops_(gflops) {
  if (p_ < 1) throw PlatformError("Cluster: need at least one processor");
  if (!(gflops_ > 0.0)) throw PlatformError("Cluster: non-positive speed");
}

Cluster::Cluster(std::string name, int num_processors, double gflops,
                 std::vector<double> speeds, std::vector<double> comm_costs)
    : Cluster(std::move(name), num_processors, gflops) {
  try {
    check_speeds(speeds, p_);
    check_comm(comm_costs, p_);
  } catch (const FieldError& e) {
    throw PlatformError("Cluster: key '" + e.key + "': " + e.detail);
  }
  speeds_ = std::move(speeds);
  comm_ = std::move(comm_costs);
}

int Cluster::clamp_allocation(long long p) const noexcept {
  return static_cast<int>(std::clamp<long long>(p, 1, p_));
}

double Cluster::relative_speed(int proc) const {
  if (proc < 0 || proc >= p_) {
    throw PlatformError("Cluster::relative_speed: processor out of range");
  }
  return speeds_.empty() ? 1.0 : speeds_[static_cast<std::size_t>(proc)];
}

double Cluster::comm_cost(int from, int to) const {
  if (from < 0 || from >= p_ || to < 0 || to >= p_) {
    throw PlatformError("Cluster::comm_cost: processor out of range");
  }
  if (comm_.empty()) return 0.0;
  return comm_[link_index(from, to, p_)];
}

double Cluster::mean_relative_speed() const noexcept {
  if (speeds_.empty()) return 1.0;
  double sum = 0.0;
  for (const double s : speeds_) sum += s;
  return sum / static_cast<double>(p_);
}

double Cluster::mean_comm_cost() const noexcept {
  if (comm_.empty() || p_ < 2) return 0.0;
  double sum = 0.0;
  for (int i = 0; i < p_; ++i) {
    for (int j = 0; j < p_; ++j) {
      if (i != j) sum += comm_[link_index(i, j, p_)];
    }
  }
  return sum / (static_cast<double>(p_) * (p_ - 1));
}

Json Cluster::to_json() const {
  Json doc = Json::object();
  doc.set("name", name_);
  doc.set("processors", static_cast<std::int64_t>(p_));
  doc.set("gflops", gflops_);
  // Heterogeneity fields are emitted only when present so homogeneous
  // documents round-trip byte-identically to the pre-hetero format.
  if (!speeds_.empty()) {
    Json arr = Json::array();
    for (const double s : speeds_) arr.push_back(s);
    doc.set("speeds", std::move(arr));
  }
  if (!comm_.empty()) {
    Json arr = Json::array();
    for (const double c : comm_) arr.push_back(c);
    doc.set("comm_costs", std::move(arr));
  }
  return doc;
}

Cluster Cluster::from_json(const Json& doc) {
  const auto p = json_require(doc, "processors", "cluster document").as_int();
  if (p < 1 || p > 1'000'000) {
    throw PlatformError("Cluster::from_json: implausible processor count");
  }
  const double gflops =
      json_require(doc, "gflops", "cluster document").as_double();
  if (!std::isfinite(gflops) || !(gflops > 0.0)) {
    throw PlatformError(
        "Cluster::from_json: gflops must be finite and positive");
  }
  std::vector<double> speeds;
  std::vector<double> comm;
  try {
    if (doc.contains("speeds")) {
      speeds = doubles_from_json(doc.at("speeds"), "speeds");
      check_speeds(speeds, static_cast<int>(p));
      if (speeds.empty()) {
        throw FieldError{"speeds", "must not be an empty array"};
      }
    }
    if (doc.contains("comm_costs")) {
      comm = doubles_from_json(doc.at("comm_costs"), "comm_costs");
      check_comm(comm, static_cast<int>(p));
      if (comm.empty()) {
        throw FieldError{"comm_costs", "must not be an empty array"};
      }
    }
  } catch (const FieldError& e) {
    // The sentinel prefix lets Cluster::load recover the key for its
    // LoadError; direct from_json callers see a PlatformError naming it.
    throw PlatformError("Cluster::from_json: key '" + e.key +
                        "': " + e.detail);
  }
  Cluster c(doc.get_or("name", std::string("cluster")), static_cast<int>(p),
            gflops);
  c.speeds_ = std::move(speeds);
  c.comm_ = std::move(comm);
  return c;
}

void Cluster::save(const std::string& path) const {
  to_json().write_file(path);
}

Cluster Cluster::load(const std::string& path) {
  // As in load_ptg: annotate failures with the file path; when the
  // message carries a "key 'k'" marker from from_json, lift the key into
  // the LoadError so callers can report path + key structurally.
  try {
    return from_json(Json::parse_file(path));
  } catch (const LoadError&) {
    throw;
  } catch (const std::exception& e) {
    const std::string what = e.what();
    const std::string marker = "key '";
    std::string key;
    if (const auto pos = what.find(marker); pos != std::string::npos) {
      const auto end = what.find('\'', pos + marker.size());
      if (end != std::string::npos) {
        key = what.substr(pos + marker.size(), end - pos - marker.size());
      }
    }
    throw LoadError(path, key, std::string("Cluster::load: ") + what);
  }
}

Cluster chti() { return Cluster("chti", 20, 4.3); }

Cluster grelon() { return Cluster("grelon", 120, 3.1); }

Cluster heterogeneous_variant(const Cluster& base, double link_cost) {
  static constexpr double kCycle[] = {1.0, 0.75, 1.25, 0.5};
  const int p = base.num_processors();
  std::vector<double> speeds(static_cast<std::size_t>(p));
  for (std::size_t j = 0; j < speeds.size(); ++j) speeds[j] = kCycle[j % 4];
  std::vector<double> comm;
  if (link_cost > 0.0) {
    comm.assign(static_cast<std::size_t>(p) * static_cast<std::size_t>(p),
                link_cost);
    for (int j = 0; j < p; ++j) comm[link_index(j, j, p)] = 0.0;
  }
  return Cluster(base.name() + "-hetero", p, base.gflops(), std::move(speeds),
                 std::move(comm));
}

Cluster degenerate_hetero_variant(const Cluster& base) {
  const int p = base.num_processors();
  std::vector<double> speeds(static_cast<std::size_t>(p), 1.0);
  std::vector<double> comm(
      static_cast<std::size_t>(p) * static_cast<std::size_t>(p), 0.0);
  return Cluster(base.name(), p, base.gflops(), std::move(speeds),
                 std::move(comm));
}

Cluster platform_by_name(const std::string& name) {
  if (name == "chti") return chti();
  if (name == "grelon") return grelon();
  if (name == "chti-hetero") return heterogeneous_variant(chti());
  if (name == "grelon-hetero") return heterogeneous_variant(grelon());
  throw PlatformError("unknown platform preset: " + name);
}

}  // namespace ptgsched
