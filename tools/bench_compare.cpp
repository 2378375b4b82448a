// bench_compare: diff two bench-trajectory documents and gate on regressions.
//
//   bench_compare BASELINE CANDIDATE [--max-regress PCT] [--allow-missing]
//                 [--max-tput-drop PCT]
//
// Flags follow the shared syntax of harness/cli.hpp (`--flag value` and
// `--flag=value` alike, strict numbers, --help exits 0).
//
// Prints a per-benchmark table of the paper's latency metric (baseline,
// candidate, delta) and exits nonzero when any benchmark's latency regresses
// by more than PCT percent (default 10), or -- unless --allow-missing --
// when a baseline benchmark is absent from the candidate. Speedups and new
// benchmarks never fail the gate. CI runs this against the committed
// BENCH_ppopp97.json baseline on every push.
//
// Gating is direction-aware: latency may not RISE past --max-regress, and
// host simulator throughput (cycles/sec, recorded by run_trajectory
// --host-metrics) may not FALL past --max-tput-drop (default 10). The
// throughput gate applies only to entries where both documents carry a
// "host" section; baselines written without --host-metrics (including the
// committed one) compare on latency alone.
#include "harness/cli.hpp"
#include "harness/trajectory.hpp"

#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

namespace {

ccsim::harness::TrajectoryDoc load(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("cannot open " + path);
  try {
    return ccsim::harness::read_trajectory(is);
  } catch (const std::exception& e) {
    throw std::runtime_error(path + ": " + e.what());
  }
}

} // namespace

int main(int argc, char** argv) {
  try {
    std::vector<std::string> files;
    ccsim::harness::CompareOptions opt;
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      std::string v;
      if (ccsim::harness::take_value("--max-regress", argc, argv, i, v)) {
        opt.max_regress_pct = ccsim::harness::parse_double("--max-regress", v);
        if (opt.max_regress_pct <= 0.0)
          throw std::invalid_argument("--max-regress must be > 0");
      } else if (ccsim::harness::take_value("--max-tput-drop", argc, argv, i, v)) {
        opt.max_tput_drop_pct = ccsim::harness::parse_double("--max-tput-drop", v);
        if (opt.max_tput_drop_pct <= 0.0)
          throw std::invalid_argument("--max-tput-drop must be > 0");
      } else if (a == "--allow-missing") {
        opt.require_all = false;
      } else if (ccsim::harness::is_help(a)) {
        std::printf(
            "usage: bench_compare BASELINE CANDIDATE"
            " [--max-regress PCT] [--allow-missing] [--max-tput-drop PCT]\n");
        return 0;
      } else if (!a.empty() && a[0] == '-') {
        throw std::invalid_argument("unknown argument: " + a);
      } else {
        files.push_back(a);
      }
    }
    if (files.size() != 2)
      throw std::invalid_argument("expected exactly two trajectory files");

    const ccsim::harness::TrajectoryDoc base = load(files[0]);
    const ccsim::harness::TrajectoryDoc cand = load(files[1]);
    if (base.bench != cand.bench)
      std::fprintf(stderr, "warning: comparing different suites (%s vs %s)\n",
                   base.bench.c_str(), cand.bench.c_str());

    const auto r = ccsim::harness::compare_trajectories(base, cand, opt);
    ccsim::harness::print_compare(std::cout, r, opt);
    return r.ok ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
