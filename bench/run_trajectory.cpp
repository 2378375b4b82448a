// Bench-trajectory writer: the figure suite distilled into one JSON file.
//
// Runs the paper's three synthetic programs (locks, barriers, reductions --
// figures 8, 11, 14) for every construct under WI / PU / CU with the
// cycle-accounting profiler attached, and writes a schema-versioned
// trajectory document (see src/harness/trajectory.hpp): per benchmark the
// total cycles, the paper's latency metric, p50/p99 operation latencies,
// and the per-category cycle breakdown. tools/bench_compare diffs two such
// documents; CI regenerates one per push and compares it against the
// committed BENCH_ppopp97.json baseline.
//
//   run_trajectory [--out FILE] [--scale X] [--procs a,b] [--paper]
//                  [--jobs N] [--host-metrics] [--progress] [--quiet]
//
// Defaults: --out BENCH_ppopp97.json, --scale 0.02, --procs 16, --jobs 1.
// Flags follow the shared syntax of harness/cli.hpp (`--flag value` and
// `--flag=value` alike); --help prints usage and exits 0.
// --progress paints a live stderr cell counter (TTY only; progress is
// presentation, not data, so the written document is unaffected) and
// --quiet suppresses the final "wrote N benchmarks" confirmation.
// --host-metrics additionally records per-entry host throughput (ms,
// cycles/sec, events/sec) so bench_compare can gate simulator-throughput
// drops; host readings are wall-clock, so a --host-metrics document is NOT
// byte-reproducible and the committed baseline is written without it.
// The simulator is deterministic and the suite's cells are independent
// simulations, so --jobs=N fans them out over the sweep engine with
// byte-identical output for every N (the committed baseline can be
// regenerated at full parallelism); a given tree always produces the
// same bytes and the baseline can be compared exactly.
#include "bench_common.hpp"
#include "harness/trajectory.hpp"

#include <fstream>
#include <iostream>

using namespace ccbench;

namespace {

harness::TrajectoryEntry make_entry(std::string name, const harness::RunResult& r) {
  harness::TrajectoryEntry e;
  e.name = std::move(name);
  e.cycles = r.cycles;
  e.avg_latency = r.avg_latency;
  e.p50 = static_cast<double>(r.latency.percentile(0.50));
  e.p99 = static_cast<double>(r.latency.percentile(0.99));
  if (r.profile.enabled()) {
    const auto totals = r.profile.totals();
    e.breakdown.assign(totals.begin(), totals.end());
  }
  if (r.host.enabled()) {
    e.has_host = true;
    e.host_ms = r.host.ms();
    e.cycles_per_sec = r.host.cycles_per_sec();
    e.events_per_sec = r.host.events_per_sec();
  }
  return e;
}

std::string point_name(std::string_view fig, std::string_view tag,
                       proto::Protocol proto, unsigned p) {
  std::string s{fig};
  s += '/';
  s += tag;
  s += '/';
  s += proto::to_string(proto);
  s += "/p";
  s += std::to_string(p);
  return s;
}

/// The figure whose program a construct family's entries come from.
std::string_view figure_of(harness::ConstructFamily f) {
  switch (f) {
    case harness::ConstructFamily::Lock: return "fig08";
    case harness::ConstructFamily::Barrier: return "fig11";
    case harness::ConstructFamily::Reduction: return "fig14";
  }
  return "?";
}

struct Options {
  std::string out = "BENCH_ppopp97.json";
  double scale = 0.02;
  std::vector<unsigned> procs{16};
  unsigned jobs = 1;
  bool host_metrics = false;
  bool progress = false;
  bool quiet = false;
};

void usage() {
  std::printf(
      "usage: run_trajectory [--out FILE] [--paper | --scale X] [--procs a,b,...]\n"
      "                      [--jobs N] [--host-metrics] [--progress] [--quiet]\n");
}

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    std::string v;
    if (harness::take_value("--out", argc, argv, i, v)) {
      o.out = v;
    } else if (a == "--paper") {
      o.scale = 1.0;
    } else if (harness::take_value("--scale", argc, argv, i, v)) {
      o.scale = harness::parse_scale("--scale", v);
    } else if (harness::take_value("--procs", argc, argv, i, v)) {
      o.procs = harness::parse_procs_list("--procs", v);
    } else if (harness::take_value("--jobs", argc, argv, i, v)) {
      o.jobs = harness::parse_uint("--jobs", v);
    } else if (a == "--host-metrics") {
      o.host_metrics = true;
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

harness::TrajectoryDoc run_suite(const Options& o) {
  std::vector<harness::SweepJob> jobs;
  for (proto::Protocol proto : kProtocols) {
    for (unsigned p : o.procs) {
      harness::MachineConfig cfg;
      cfg.protocol = proto;
      cfg.nprocs = p;
      cfg.obs.profile = true;  // the breakdown vector is part of the document
      cfg.obs.host_metrics = o.host_metrics;
      for (const harness::Construct& c : harness::kConstructs)
        jobs.push_back(harness::sweep_cell(
            point_name(figure_of(c.family), harness::short_tag(c), proto, p), c,
            cfg, o.scale));
    }
  }
  const std::vector<harness::SweepResult> results =
      harness::run_sweep_reported(jobs, o.jobs, o.progress && !o.quiet);

  harness::TrajectoryDoc doc;
  doc.bench = "ppopp97";
  for (const harness::SweepResult& r : results)
    if (r.ok) doc.entries.push_back(make_entry(r.name, r.run));
  if (doc.entries.size() != results.size())
    throw std::runtime_error(std::to_string(results.size() - doc.entries.size()) +
                             " cell(s) failed; refusing to write a partial "
                             "trajectory");
  return doc;
}

} // namespace

int main(int argc, char** argv) {
  try {
    const Options o = parse_args(argc, argv);
    const harness::TrajectoryDoc doc = run_suite(o);
    if (o.out == "-") {
      harness::write_trajectory(std::cout, doc);
    } else {
      std::ofstream os(o.out);
      if (!os) throw std::runtime_error("cannot open output file: " + o.out);
      harness::write_trajectory(os, doc);
      if (!o.quiet)
        std::cout << "wrote " << doc.entries.size() << " benchmarks to " << o.out
                  << "\n";
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
