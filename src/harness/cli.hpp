// Shared command-line handling for every driver: the figure benches,
// bench/run_trajectory, the ccsweep / ccstress / ccperf / ccadvise /
// bench_compare tools and examples/protocol_explorer's observability flags.
//
// One syntax rule holds for every value flag of every driver:
//   * `--flag value` and `--flag=value` are the same;
//   * lists are comma-separated with no empty items (`--procs=2,4`);
//   * integers are strict -- digits only (decimal or 0x hex), no sign, no
//     trailing junk -- and decimals likewise (`--jobs=-1`, `--procs 2x`
//     and `--scale=0.5x` are rejected);
//   * machine sizes are in [1, kMaxProcs] = [1, 32];
//   * `--help` / `-h` prints the driver's usage and exits 0.
// A bad flag or value throws std::invalid_argument whose message starts
// with the flag's name; drivers print it as "error: <message>" and exit
// nonzero. The value parsers below are the only place a flag value is
// checked, so a flag gets the same validation and error text everywhere.
//
// Every figure bench accepts:
//   --paper       run the paper's full iteration counts (32000 acquires,
//                 5000 episodes/rounds); the default is a scaled-down run
//                 whose steady-state averages match
//   --scale X     explicit scale factor (0 < X <= 1)
//   --procs a,b   override the machine-size sweep
//   --csv         emit CSV instead of the aligned table
//   --jobs N      run the sweep's independent cells on N worker threads
//                 (0 = one per hardware thread; default 1 = sequential).
//                 Output is byte-identical for every N. Observability
//                 flags stream per-run output and therefore force
//                 sequential execution (a note is printed).
// Observability (everything off by default; the default output is unchanged):
//   --json FILE           write machine-readable metrics (counters, interval
//                         samples, hot-block table) for every run
//   --trace-out FILE      write a structured event trace
//   --trace-format F      ring | jsonl | perfetto (default perfetto)
//   --sample-interval N   snapshot counter deltas every N cycles
//   --hot-top K           report the K hottest blocks (default 16)
//   --profile             cycle-accounting profiler: per-category stall
//                         breakdown and sync-phase latency histograms,
//                         printed per run and embedded in --json output
//   --host-metrics        host-performance telemetry: simulator throughput,
//                         event-queue depth stats, allocation counters and
//                         host-time attribution, printed per run and added
//                         as a "host" section to --json output. Never
//                         changes simulated results.
//   --sharing             per-block sharing-pattern classification and
//                         protocol advice: taxonomy table and projected
//                         WI/PU/CU costs, printed per run and added as a
//                         "sharing" section to --json output. Never
//                         changes simulated results.
// The REPRO_SCALE environment variable, if set, provides the figure
// benches' default scale.
#pragma once

#include "obs/trace.hpp"
#include "proto/protocol.hpp"

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace ccsim::harness {

/// Observability-related command-line options (shared by the benches and
/// examples/protocol_explorer).
struct ObsOptions {
  std::string json_path;   ///< --json: metrics JSON output ("" = off)
  std::string trace_path;  ///< --trace-out: trace file ("" = off)
  obs::TraceFormat trace_format = obs::TraceFormat::Perfetto;
  Cycle sample_interval = 0;  ///< --sample-interval (0 = off)
  std::size_t hot_top_k = 16; ///< --hot-top
  bool profile = false;       ///< --profile (cycle accounting)
  bool host_metrics = false;  ///< --host-metrics (host telemetry)
  bool sharing = false;       ///< --sharing (sharing-pattern classifier)
  [[nodiscard]] bool any() const noexcept {
    return !json_path.empty() || !trace_path.empty() || sample_interval != 0 ||
           profile || host_metrics || sharing;
  }
};

struct BenchOptions {
  double scale = 0.05;
  bool csv = false;
  std::vector<unsigned> procs{1, 2, 4, 8, 16, 32};
  /// Sweep worker threads (--jobs): 1 = sequential, 0 = hardware threads.
  unsigned jobs = 1;
  bool help = false;  ///< --help / -h: print bench_usage() and exit 0
  ObsOptions obs;
};

/// Parse a figure bench's command line (see the header comment).
BenchOptions parse_bench_args(int argc, char** argv);

/// The figure benches' usage text, for `--help`.
[[nodiscard]] std::string bench_usage(std::string_view prog);

/// Try to consume one observability flag at argv[i] (advancing i past a
/// separate value argument if needed). Returns false if argv[i] is not an
/// obs flag. Shared between parse_bench_args and the example drivers.
bool parse_obs_arg(ObsOptions& o, int argc, char** argv, int& i);

// ---------------------------------------------------------------------
// Building blocks of every driver's flag loop
// ---------------------------------------------------------------------

/// Match `--flag=value` or `--flag value` at argv[i]. On a match `value`
/// is set and `i` is left on the last argv slot consumed; a bare `--flag`
/// with nothing after it throws.
bool take_value(std::string_view flag, int argc, char** argv, int& i,
                std::string& value);

/// True for `--help` and `-h`.
[[nodiscard]] bool is_help(std::string_view arg) noexcept;

/// The comma-separated items of a list value; throws on an empty list or
/// an empty item (`2,,4`).
[[nodiscard]] std::vector<std::string> split_list(std::string_view flag,
                                                  const std::string& value);

/// Strict unsigned integer in [lo, hi] (decimal, or hex with 0x).
[[nodiscard]] std::uint64_t parse_u64(std::string_view flag, const std::string& value,
                                      std::uint64_t lo = 0,
                                      std::uint64_t hi = UINT64_MAX);

/// parse_u64 narrowed to unsigned: [lo, UINT_MAX].
[[nodiscard]] unsigned parse_uint(std::string_view flag, const std::string& value,
                                  unsigned lo = 0);

/// A machine size in [1, kMaxProcs].
[[nodiscard]] unsigned parse_procs(std::string_view flag, const std::string& value);

/// A comma list of machine sizes, each in [1, kMaxProcs].
[[nodiscard]] std::vector<unsigned> parse_procs_list(std::string_view flag,
                                                     const std::string& value);

/// Strict decimal: a digit or '.' first, nothing after the number.
[[nodiscard]] double parse_double(std::string_view flag, const std::string& value);

/// Strict decimal scale factor in (0, 1].
[[nodiscard]] double parse_scale(std::string_view flag, const std::string& value);

/// Strict decimal percentage in [0, 100].
[[nodiscard]] double parse_percent(std::string_view flag, const std::string& value);

/// "WI", "PU" or "CU" (or lower case).
[[nodiscard]] proto::Protocol parse_protocol(std::string_view flag,
                                             std::string_view value);

} // namespace ccsim::harness
