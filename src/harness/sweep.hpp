// Parallel sweep engine: run independent simulation configs concurrently.
//
// Every bench walks a (protocol x construct x machine size) grid of
// simulations that are deterministic, fully independent event-loop runs --
// there is no shared mutable state between two Machines. The sweep engine
// exploits that: a SweepJob names one cell of the grid, run_sweep() fans
// the jobs out over a pool of std::jthread workers (each job constructs
// its own Machine inside the worker), and results come back buffered
// per-job in submission order, so output built from them is byte-identical
// to a sequential run regardless of completion order or worker count.
//
// Failure containment: a job that throws is reported as a failed cell
// carrying the exception text (SweepResult::ok == false) instead of taking
// down the sweep -- the remaining cells still run and the caller decides
// whether a failed cell is fatal.
//
// Thread-safety contract: the simulator keeps all state inside the
// Machine, so concurrent jobs are safe as long as they do not share
// attachments. The one sharable attachment is ObsConfig::sink (trace
// sinks write to one stream); run_sweep() therefore rejects any job with
// a sink when more than one worker would run. Per-machine observability
// (profile, sampling, hot blocks) is safe and allowed.
#pragma once

#include "harness/workloads.hpp"

#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace ccsim::harness {

/// Which experiment family a SweepJob runs (the paper's three synthetic
/// programs, sections 4.1-4.3).
enum class ConstructFamily : std::uint8_t { Lock, Barrier, Reduction };

[[nodiscard]] std::string_view to_string(ConstructFamily f) noexcept;

/// One of the paper's synchronization constructs: a family and the kind
/// within it (only the kind `family` selects is meaningful). Converts
/// implicitly from each kind enum.
struct Construct {
  ConstructFamily family;
  LockKind lock = LockKind::Ticket;
  BarrierKind barrier = BarrierKind::Central;
  ReductionKind reduction = ReductionKind::Sequential;

  constexpr Construct(LockKind k) noexcept : family(ConstructFamily::Lock), lock(k) {}
  constexpr Construct(BarrierKind k) noexcept
      : family(ConstructFamily::Barrier), barrier(k) {}
  constexpr Construct(ReductionKind k) noexcept
      : family(ConstructFamily::Reduction), reduction(k) {}
  friend constexpr bool operator==(const Construct&, const Construct&) = default;
};

/// The protocols every grid sweeps. Protocol::Hybrid is deliberately
/// excluded: a hybrid machine is meaningless without per-region
/// Machine::bind_protocol calls choosing a protocol for each allocation,
/// and the generic construct workloads make none (every region would
/// silently run hybrid_default, duplicating a pure-protocol cell under a
/// misleading label). The dedicated abl_hybrid bench, which binds each
/// construct's memory to its best protocol, is the one place hybrid
/// machines are measured.
inline constexpr proto::Protocol kProtocols[] = {proto::Protocol::WI,
                                                 proto::Protocol::PU,
                                                 proto::Protocol::CU};

/// All nine constructs in the paper's figure order: the locks of figure 8,
/// the barriers of figure 11, the reductions of figure 14.
inline constexpr Construct kConstructs[] = {
    LockKind::Ticket,           LockKind::Mcs,           LockKind::UcMcs,
    BarrierKind::Central,       BarrierKind::Dissemination, BarrierKind::Tree,
    BarrierKind::CombiningTree, ReductionKind::Parallel, ReductionKind::Sequential};

/// The paper's bar-label tag: tk, MCS, uc; cb, db, tb, ct; pr, sr.
[[nodiscard]] std::string_view short_tag(const Construct& c) noexcept;

/// The construct of `family` whose short_tag is `tag` ("mcs" also matches
/// MCS). Throws std::invalid_argument naming `flag` and the known tags.
[[nodiscard]] Construct parse_short_tag(std::string_view flag,
                                        ConstructFamily family,
                                        std::string_view tag);

/// Apply a scale factor to one of the paper's iteration counts (>= 32).
[[nodiscard]] std::uint64_t scaled(double scale, std::uint64_t paper_count);

/// One cell of a sweep grid: everything needed to run one simulation.
/// Only the member selected by `family` (and its params) is consulted.
struct SweepJob {
  std::string name;       ///< cell label, e.g. "fig08/tk/WI/p16"
  MachineConfig machine;  ///< protocol, nprocs, cu_threshold, obs, ...
  ConstructFamily family = ConstructFamily::Lock;
  LockKind lock = LockKind::Ticket;
  BarrierKind barrier = BarrierKind::Central;
  ReductionKind reduction = ReductionKind::Sequential;
  LockParams lock_params{};
  BarrierParams barrier_params{};
  ReductionParams reduction_params{};
  /// Custom experiment (tools/ccstress): when set, run_sweep_job invokes
  /// this instead of the family dispatch above. Must be safe to call from
  /// a worker thread (i.e. keep all state inside the Machine it builds).
  std::function<RunResult(const MachineConfig&)> runner;
};

/// The outcome of one cell: either a RunResult or an exception text.
struct SweepResult {
  std::string name;
  bool ok = false;
  /// What kind of failure a !ok cell is: a watchdog/deadlock trip, a
  /// coherence-invariant violation, or any other exception. Callers (the
  /// ccstress/ccsweep tools) map these to distinct exit codes.
  enum class FailKind : std::uint8_t { None, Deadlock, Invariant, Other };
  FailKind fail = FailKind::None;
  std::string error;  ///< exception text when !ok
  RunResult run;      ///< valid only when ok
};

[[nodiscard]] std::string_view to_string(SweepResult::FailKind k) noexcept;

/// The job for one grid cell: construct `c` on machine `m` at the paper's
/// iteration counts (the LockParams / BarrierParams / ReductionParams
/// defaults) times `scale`. `seed`, when given, replaces the lock or
/// reduction default seed; barriers take none.
[[nodiscard]] SweepJob sweep_cell(std::string name, const Construct& c,
                                  const MachineConfig& m, double scale,
                                  std::optional<std::uint64_t> seed = std::nullopt);

struct SweepOptions {
  /// Worker threads. 1 = in-caller sequential execution (still with
  /// failure containment); 0 = one per hardware thread. The pool never
  /// exceeds the number of jobs.
  unsigned jobs = 1;
  /// Invoked after each cell completes with the number of cells finished
  /// so far and the total (tools wire a ProgressReporter here). Called
  /// from worker threads when jobs > 1 -- must be thread-safe.
  std::function<void(std::size_t done, std::size_t total)> progress;
};

/// Run one job synchronously, containing any exception as a failed cell.
[[nodiscard]] SweepResult run_sweep_job(const SweepJob& job);

/// Run every job and return results in submission order (results[i] is
/// jobs[i]). Throws std::invalid_argument before running anything if
/// more than one worker would run and a job carries a trace sink (the
/// only cross-job shared state; see the header comment).
[[nodiscard]] std::vector<SweepResult> run_sweep(
    const std::vector<SweepJob>& jobs, const SweepOptions& opts = {});

/// Print "failed cell NAME [KIND]: ERROR" on stderr for each failed cell;
/// returns how many failed.
std::size_t report_failures(const std::vector<SweepResult>& results);

/// The tools' sweep: run_sweep on `workers` threads with a live progress
/// line on stderr when `progress` is set (TTY only), then report_failures.
[[nodiscard]] std::vector<SweepResult> run_sweep_reported(
    const std::vector<SweepJob>& jobs, unsigned workers, bool progress);

} // namespace ccsim::harness
