// The correctness gate: run digests against the recorded ones and the
// figure cells against the BENCH_ppopp97.json baseline.
#include "bench.hpp"

#include "harness/obs_session.hpp"
#include "harness/trajectory.hpp"
#include "stats/json.hpp"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace hostbench {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string fields_json(const harness::RunResult& r) {
  std::ostringstream os;
  stats::JsonWriter w(os);
  w.begin_object();
  harness::write_run_fields(w, r);
  w.end_object();
  return os.str();
}

/// `v` as the trajectory document stores it (the baseline keeps the
/// writer's rounding, so compare after the same round trip).
double as_stored(double v) {
  harness::TrajectoryDoc doc;
  doc.bench = "ppopp97";
  harness::TrajectoryEntry e;
  e.name = "x";
  e.avg_latency = v;
  doc.entries.push_back(e);
  std::stringstream ss;
  harness::write_trajectory(ss, doc);
  return harness::read_trajectory(ss).entries.at(0).avg_latency;
}

} // namespace

std::string run_json(const harness::RunResult& r) {
  if (!r.host.enabled()) return fields_json(r);
  harness::RunResult copy = r;
  copy.host = {};
  return fields_json(copy);
}

std::string digest(std::string_view text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, h);
  return buf;
}

std::string core_digest(const harness::RunResult& r) {
  harness::RunResult core;
  core.cycles = r.cycles;
  core.avg_latency = r.avg_latency;
  core.counters = r.counters;
  core.latency = r.latency;
  return digest(fields_json(core));
}

Gate::Gate(const std::string& digests_path, const std::string& baseline_path) {
  const stats::JsonValue doc = stats::parse_json(read_file(digests_path));
  if (doc.at("schema").integer != 1)
    throw std::runtime_error(digests_path + ": unsupported schema");
  for (const auto& [key, value] : doc.at("digests").object)
    digests_.emplace(key, value.string);

  std::ifstream in(baseline_path);
  if (!in) throw std::runtime_error("cannot read " + baseline_path);
  for (const harness::TrajectoryEntry& e : harness::read_trajectory(in).entries)
    baseline_.emplace(e.name, Entry{e.cycles, e.avg_latency});
}

std::string Gate::check(const Cell& cell, const harness::RunResult& r,
                        const std::string& run_digest, bool require_recorded) const {
  if (const auto it = digests_.find(cell.key); it != digests_.end()) {
    if (it->second != run_digest)
      return "digest " + run_digest + " != recorded " + it->second;
  } else if (require_recorded) {
    return "no recorded digest for " + cell.key;
  }
  if (!cell.baseline_name.empty()) {
    const auto it = baseline_.find(cell.baseline_name);
    if (it == baseline_.end()) return "no baseline entry " + cell.baseline_name;
    if (it->second.cycles != r.cycles)
      return "cycles " + std::to_string(r.cycles) + " != baseline " +
             std::to_string(it->second.cycles);
    if (as_stored(r.avg_latency) != it->second.avg_latency)
      return "avg_latency differs from baseline " + cell.baseline_name;
  }
  return "";
}

} // namespace hostbench
