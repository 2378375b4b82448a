// ccperf: self-profile the simulator on a fixed workload matrix.
//
//   ccperf [--procs N] [--scale X] [--jobs N] [--out FILE]
//          [--progress] [--quiet]
//
// Flags follow the shared syntax of harness/cli.hpp: `--flag value` and
// `--flag=value` alike, strict numbers, --procs in [1, 32], --help exits 0.
//
// Runs the paper's three constructs (ticket lock, central barrier,
// parallel reduction) under WI / PU / CU with host-performance telemetry
// attached (obs/host_perf.hpp) -- nine cells that together exercise every
// protocol engine and construct family -- and reports how fast the *host*
// executes the simulator: simulated Mcycles/sec, events/sec, event-queue
// depth statistics, and where host time goes (event loop vs protocol
// handlers vs network routing vs obs hooks). This is the report to run
// before and after a simulator-core optimization; bench_compare gates the
// same throughput series continuously via run_trajectory --host-metrics.
//
// Output: an aligned table on stdout (one row per cell plus a merged
// TOTAL row) and, with --out, a JSON report (schema in docs/schema.md)
// whose per-cell "host" objects match the benches' --json documents.
// Host readings are wall-clock: the table and JSON vary run to run and
// are never byte-compared. Exit codes: 0 = every cell ran and produced
// nonzero throughput; 1 = a cell failed or timed so fast that throughput
// rounded to zero; 2 = usage error.
#include "harness/obs_session.hpp"
#include "harness/sweep.hpp"
#include "stats/json.hpp"
#include "stats/table.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

using namespace ccsim;

namespace {

struct Options {
  unsigned procs = 16;
  double scale = 0.02;
  unsigned jobs = 1;
  std::string out;  ///< JSON report path ("" = table only)
  bool progress = false;
  bool quiet = false;
};

void usage() {
  std::printf(
      "usage: ccperf [--procs N] [--scale X] [--jobs N] [--out FILE]\n"
      "              [--progress] [--quiet]\n");
}

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    std::string v;
    if (harness::take_value("--procs", argc, argv, i, v)) {
      o.procs = harness::parse_procs("--procs", v);
    } else if (harness::take_value("--scale", argc, argv, i, v)) {
      o.scale = harness::parse_scale("--scale", v);
    } else if (harness::take_value("--jobs", argc, argv, i, v)) {
      o.jobs = harness::parse_uint("--jobs", v);
    } else if (harness::take_value("--out", argc, argv, i, v)) {
      o.out = v;
    } else if (a == "--progress") {
      o.progress = true;
    } else if (a == "--quiet") {
      o.quiet = true;
    } else if (harness::is_help(a)) {
      usage();
      std::exit(0);
    } else {
      throw std::invalid_argument("unknown argument: " + a);
    }
  }
  return o;
}

/// One construct per family, each run under WI, PU and CU.
constexpr harness::Construct kCells[] = {harness::LockKind::Ticket,
                                         harness::BarrierKind::Central,
                                         harness::ReductionKind::Parallel};

std::vector<harness::SweepJob> build_matrix(const Options& o) {
  std::vector<harness::SweepJob> jobs;
  for (proto::Protocol proto : harness::kProtocols) {
    harness::MachineConfig cfg;
    cfg.protocol = proto;
    cfg.nprocs = o.procs;
    cfg.obs.host_metrics = true;
    const std::string prefix = std::string(proto::to_string(proto)) + "/";
    for (const harness::Construct& c : kCells)
      jobs.push_back(harness::sweep_cell(
          prefix + std::string(harness::to_string(c.family)) + "/" +
              std::string(harness::short_tag(c)),
          c, cfg, o.scale));
  }
  return jobs;
}

void print_table(std::ostream& os,
                 const std::vector<harness::SweepResult>& results,
                 const obs::HostPerfReport& total) {
  using stats::Table;
  Table t({{"cell", 16, true, ""},
           {"Mcyc", 9, false, " "},
           {"host ms", 9, false, " "},
           {"Mcyc/s", 8, false, " "},
           {"kev/s", 9, false, " "},
           {"q.p50", 6, false, " "},
           {"q.p99", 6, false, " "},
           {"peak", 5, false, " "},
           {"loop/proto/net/obs %", 0, true, "  "}});
  auto row = [&](const std::string& name, const obs::HostPerfReport& h) {
    t.add_row({name, Table::num(static_cast<double>(h.sim_cycles) * 1e-6, 2),
               Table::num(h.ms()), Table::num(h.cycles_per_sec() * 1e-6, 2),
               Table::num(h.events_per_sec() * 1e-3),
               Table::num(h.queue_depth.percentile(0.50)),
               Table::num(h.queue_depth.percentile(0.99)),
               Table::num(h.queue_peak),
               Table::num(100.0 * h.share(obs::HostCat::EventLoop), 0) + "/" +
                   Table::num(100.0 * h.share(obs::HostCat::Protocol), 0) +
                   "/" + Table::num(100.0 * h.share(obs::HostCat::Network), 0) +
                   "/" + Table::num(100.0 * h.share(obs::HostCat::ObsHooks), 0)});
  };
  for (const harness::SweepResult& r : results) {
    if (!r.ok) {
      t.add_row({r.name, "FAILED: " + r.error});
      continue;
    }
    row(r.name, r.run.host);
  }
  row("TOTAL", total);
  t.print(os);
}

void write_report(std::ostream& os, const Options& o,
                  const std::vector<harness::SweepResult>& results,
                  const obs::HostPerfReport& total) {
  stats::JsonWriter w(os);
  w.begin_object();
  w.key("schema").value(std::uint64_t{1});
  w.key("tool").value("ccperf");
  w.key("procs").value(o.procs);
  w.key("scale").value(o.scale);
  w.key("cells").begin_array();
  for (const harness::SweepResult& r : results) {
    w.begin_object();
    w.key("name").value(r.name);
    w.key("ok").value(r.ok);
    if (r.ok) {
      w.key("host").begin_object();
      harness::write_host_fields(w, r.run.host);
      w.end_object();
    } else {
      w.key("fail_kind").value(harness::to_string(r.fail));
      w.key("error").value(r.error);
    }
    w.end_object();
  }
  w.end_array();
  w.key("summary").begin_object();
  w.key("cells").value(static_cast<std::uint64_t>(results.size()));
  std::uint64_t ok = 0;
  for (const harness::SweepResult& r : results) ok += r.ok;
  w.key("ok").value(ok);
  w.key("host").begin_object();
  harness::write_host_fields(w, total);
  w.end_object();
  w.end_object();
  w.end_object();
  os << '\n';
}

} // namespace

int main(int argc, char** argv) {
  try {
    const Options o = parse_args(argc, argv);
    const std::vector<harness::SweepJob> jobs = build_matrix(o);
    const std::vector<harness::SweepResult> results =
        harness::run_sweep_reported(jobs, o.jobs, o.progress && !o.quiet);

    obs::HostPerfReport total;
    bool any_failed = false;
    for (const harness::SweepResult& r : results) {
      any_failed |= !r.ok;
      if (r.ok) total.merge(r.run.host);
    }

    if (!o.quiet) print_table(std::cout, results, total);
    if (!o.out.empty()) {
      std::ofstream os(o.out);
      if (!os) throw std::runtime_error("cannot open output file: " + o.out);
      write_report(os, o, results, total);
      if (!o.quiet)
        std::fprintf(stderr, "wrote host-profile report to %s\n", o.out.c_str());
    }
    if (any_failed) return 1;
    // A throughput of zero means the collector never saw host time pass --
    // a broken clock or a broken hook path; fail loudly.
    if (!(total.cycles_per_sec() > 0.0) || !(total.events_per_sec() > 0.0))
      return 1;
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    usage();
    return 2;
  }
}
