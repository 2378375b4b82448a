// One observability session for a whole bench/driver invocation.
//
// Owns the output files and the trace sink selected by the --json /
// --trace-out / --trace-format / --sample-interval flags, configures every
// Machine the driver builds, collects the per-run results, and writes the
// machine-readable metrics document at the end. With no obs flags all calls
// are no-ops, so drivers adopt it unconditionally without changing their
// default output.
#pragma once

#include "harness/cli.hpp"
#include "harness/sweep.hpp"
#include "harness/workloads.hpp"
#include "stats/json.hpp"

#include <fstream>
#include <memory>
#include <string>
#include <vector>

namespace ccsim::harness {

class ObsSession {
public:
  /// `name` labels the metrics document (typically the bench binary name).
  ObsSession(ObsOptions opts, std::string name);
  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;
  ~ObsSession();

  /// Point `cfg` at this session's sink/sampling/hot-block settings and
  /// open a new trace run labeled `label`. Call once per Machine, right
  /// before constructing it.
  void configure(MachineConfig& cfg, std::string label);

  /// Collect the result of the run last configure()d (kept only when a
  /// metrics file was requested).
  void record(const RunResult& r);

  /// Flush the trace and write the metrics JSON. Idempotent; also runs
  /// from the destructor.
  void finish();

  /// True if any obs flag was given.
  [[nodiscard]] bool enabled() const noexcept { return opts_.any(); }

private:
  ObsOptions opts_;
  std::string name_;
  std::ofstream trace_file_;
  std::unique_ptr<obs::TraceSink> sink_;
  std::string label_;
  struct Entry {
    std::string label;
    RunResult result;
  };
  std::vector<Entry> runs_;
  bool finished_ = false;
};

/// Write one run as a JSON object: label, cycles, avg_latency, counters,
/// interval samples (when sampled) and hot blocks (when attributed).
void write_run_json(stats::JsonWriter& w, const std::string& label,
                    const RunResult& r);

/// The body of write_run_json without the label: emits the run's keys
/// (cycles, avg_latency, counters, latency?, samples?, hot_blocks?,
/// profile?) into the object currently open on `w`. Shared with
/// tools/ccsweep so sweep cells and --json runs carry one schema
/// (documented in docs/schema.md).
void write_run_fields(stats::JsonWriter& w, const RunResult& r);

/// Emit the key "cells" with one object per sweep result: name, ok, then
/// the run fields or fail_kind and error. Shared by tools/ccsweep and
/// tools/ccstress.
void write_sweep_cells(stats::JsonWriter& w, const std::vector<SweepResult>& results);

/// Emit the body of the "sharing" section (schema, per-pattern block
/// counts, per-block rows, per-allocation aggregates, projected WI/PU/CU
/// costs and the recommended protocol) into the object currently open on
/// `w`. Shared with tools/ccadvise. Schema in docs/schema.md; the section
/// is opt-in and excluded from byte-identity comparisons.
void write_sharing_fields(stats::JsonWriter& w, const obs::SharingReport& s);

/// Emit the body of the "host" section (schema, throughput, queue stats,
/// allocation counters, subsystem nanoseconds) into the object currently
/// open on `w`. Shared with tools/ccperf. Schema in docs/schema.md; the
/// section is opt-in and excluded from byte-identity comparisons.
void write_host_fields(stats::JsonWriter& w, const obs::HostPerfReport& h);

} // namespace ccsim::harness
