// Host benchmark for the ccsim library: shared declarations.
//
// The benchmark drives the simulator only through its public harness API
// (Machine, run_sweep, SweepJob::runner, write_run_fields, EventQueue,
// Network) and measures every layer from outside, by timing calls into it.
// Simulated results are correctness checks here, never metrics to improve:
// a speed-only change must leave every digest below unchanged.
#pragma once

#include "harness/sweep.hpp"
#include "harness/workloads.hpp"
#include "net/network.hpp"
#include "obs/trace.hpp"
#include "stats/counters.hpp"

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace hostbench {

using namespace ccsim;

// ---------------------------------------------------------------------
// Workloads (workloads.cpp)
// ---------------------------------------------------------------------

/// One simulation cell of a workload.
struct Cell {
  /// Canonical string of every parameter the run depends on. Two cells
  /// with equal keys must produce equal digests, whatever the seed.
  std::string key;
  /// Trajectory-style name ("fig08/tk/WI/p16") when the cell's parameters
  /// equal a BENCH_ppopp97.json entry; empty otherwise.
  std::string baseline_name;
  harness::SweepJob job;
};

/// A closed batch of cells, run to completion by `workers` threads. The
/// first cell doubles as the untimed warm-up cell and as the cell of the
/// observer-overhead pass.
struct Workload {
  std::string name;
  unsigned workers = 1;
  std::vector<Cell> cells;
};

inline constexpr std::uint64_t kDefaultSeed = 1;
inline constexpr std::uint64_t kHeldOutSeed = 97;

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Build a workload's cells from the benchmark seed. Throws
/// std::invalid_argument for an unknown name.
[[nodiscard]] Workload make_workload(std::string_view name, std::uint64_t seed);

/// Run one cell's experiment under `cfg` (the job's own config, or a copy
/// with observers toggled). Throws whatever the experiment throws.
[[nodiscard]] harness::RunResult run_job(const harness::SweepJob& job,
                                         const harness::MachineConfig& cfg);

// ---------------------------------------------------------------------
// Digests and the correctness gate (check.cpp)
// ---------------------------------------------------------------------

/// write_run_fields of `r` with the host section excluded.
[[nodiscard]] std::string run_json(const harness::RunResult& r);

/// FNV-1a 64 of a string, as 16 hex digits.
[[nodiscard]] std::string digest(std::string_view text);

/// Digest of the simulated fields only (cycles, avg_latency, counters,
/// latency): every observer section cleared. Equal for any observer set.
[[nodiscard]] std::string core_digest(const harness::RunResult& r);

/// Recorded digests (digests.json) and the BENCH_ppopp97.json baseline.
class Gate {
public:
  Gate(const std::string& digests_path, const std::string& baseline_path);

  /// "" when `r` passes every check that applies to `cell`, else why not.
  /// `require_recorded` makes a key missing from digests.json a failure.
  [[nodiscard]] std::string check(const Cell& cell, const harness::RunResult& r,
                                  const std::string& run_digest,
                                  bool require_recorded) const;

private:
  std::map<std::string, std::string> digests_;
  struct Entry {
    Cycle cycles = 0;
    double avg_latency = 0.0;
  };
  std::map<std::string, Entry> baseline_;
};

// ---------------------------------------------------------------------
// Network traffic recording and standalone replay (replay.cpp)
// ---------------------------------------------------------------------

/// One recorded network event (a MsgSend or MsgRecv trace record).
struct NetRecord {
  Cycle cycle = 0;
  Cycle dur = 0;
  std::uint64_t flow = 0;
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  net::MsgType type{};
  bool send = false;
};

/// Benchmark-owned trace sink: keeps every network send/receive and counts
/// every event it is handed.
class NetRecorder : public obs::TraceSink {
public:
  void on_event(const obs::TraceEvent& e) override;
  void clear() {
    records_.clear();
    events_ = 0;
  }
  [[nodiscard]] const std::vector<NetRecord>& records() const noexcept {
    return records_;
  }
  [[nodiscard]] std::uint64_t events() const noexcept { return events_; }

private:
  std::vector<NetRecord> records_;
  std::uint64_t events_ = 0;
};

struct ReplayReport {
  std::string error;            ///< "" = every delivery and count matched
  std::uint64_t messages = 0;   ///< replayed sends (remote + local)
  std::uint64_t block_messages = 0;  ///< remote sends carrying a block
  std::uint64_t remote_messages = 0;
  std::uint64_t queue_events = 0;    ///< events of the queue-only replay
  std::uint64_t queue_ns = 0;   ///< best queue-only replay
  std::uint64_t net_ns = 0;     ///< best EventQueue+Network replay
};

/// Replay a cell's recorded sends through a standalone EventQueue+Network
/// built from the cell's machine size and network parameters, check that
/// every delivery cycle and the per-type counts match `expect`, and time
/// the replay against a queue-only replay of the same schedule.
/// `repeats` timed repetitions of each; the best one is kept.
[[nodiscard]] ReplayReport replay(const std::vector<NetRecord>& records,
                                  unsigned nprocs, const net::Network::Params& params,
                                  const stats::NetCounters& expect,
                                  unsigned repeats);

// ---------------------------------------------------------------------
// Spans (spans.cpp)
// ---------------------------------------------------------------------

using Clock = std::chrono::steady_clock;

/// Nanoseconds of CPU time consumed by the calling thread / the process.
[[nodiscard]] std::int64_t thread_cpu_ns();
[[nodiscard]] std::int64_t process_cpu_ns();

/// In-memory span log, written once at the end as Chrome trace-event JSON
/// (loads in Perfetto). Recorded from one thread; spans timed on worker
/// threads are added afterwards with their own track.
class SpanLog {
public:
  using Id = std::uint32_t;
  static constexpr Id kNone = 0;

  [[nodiscard]] std::int64_t now_ns() const;
  Id add(std::string name, Id parent, std::int64_t start_ns, std::int64_t end_ns,
         unsigned track = 0);
  [[nodiscard]] Id open(std::string name, Id parent);
  void close(Id id);
  void write_perfetto(const std::string& path) const;

private:
  struct Span {
    std::string name;
    Id parent = kNone;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    unsigned track = 0;
  };
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

} // namespace hostbench
