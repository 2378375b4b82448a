// ccstress: seeded randomized robustness tester.
//
//   ccstress [--protocols WI,PU,CU] [--seeds N | --seed-list a,b,...]
//            [--jitters 0,3,17] [--procs 16] [--segments 6] [--ops 48]
//            [--blocks 16] [--watchdog N] [--max-cycles N] [--jobs N]
//            [--no-check] [--inject-hang] [--host-metrics] [--out FILE]
//            [--progress] [--quiet]
//
// Flags follow the shared syntax of harness/cli.hpp: `--flag value` and
// `--flag=value` alike, strict numbers, --procs in [1, 32], --help exits 0.
//
// Fans a grid of (protocol x seed x network-jitter) stress cells through
// the parallel sweep engine. Every cell runs the segment-structured random
// workload of harness/stress.hpp -- randomized read/write/atomic/lock mixes
// separated by randomly chosen barriers and reduction rounds -- with the
// coherence-invariant checker and the deadlock/livelock watchdog enabled,
// under deterministic network-delivery jitter. The whole grid is a pure
// function of its seeds: the same invocation produces a byte-identical
// report for any --jobs value.
//
// --inject-hang appends one deliberately hung cell (a spin nobody
// satisfies) so CI can assert the watchdog path end to end.
//
// --host-metrics adds the opt-in per-cell "host" section (host ms,
// throughput, queue stats; docs/schema.md) -- host readings vary run to
// run, so documents with it are not byte-comparable. --progress paints a
// live cells-done/rate/ETA line on stderr (only when stderr is a TTY;
// --quiet suppresses it and the final summary line).
//
// Exit codes: 0 = every cell passed; 1 = some cell failed another way;
// 2 = usage error; 3 = a cell tripped the deadlock/livelock watchdog;
// 4 = a cell violated a coherence invariant. Invariant beats deadlock
// beats other when cells disagree.
#include "harness/obs_session.hpp"
#include "harness/stress.hpp"
#include "harness/sweep.hpp"
#include "sim/rng.hpp"
#include "stats/json.hpp"

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
  std::vector<proto::Protocol> protocols{std::begin(harness::kProtocols),
                                         std::end(harness::kProtocols)};
  std::vector<std::uint64_t> seeds;  ///< filled from --seeds N if empty
  unsigned seed_count = 12;
  std::vector<Cycle> jitters{0, 3, 17};
  unsigned procs = 16;
  unsigned segments = 6;
  unsigned ops = 48;
  unsigned blocks = 16;
  Cycle watchdog = 2'000'000;
  Cycle max_cycles = 50'000'000;
  unsigned jobs = 1;
  bool check = true;
  bool inject_hang = false;
  bool host_metrics = false;
  bool progress = false;
  bool quiet = false;
  std::string out = "-";
};

void usage() {
  std::printf(
      "usage: ccstress [--protocols WI,PU,CU] [--seeds N | --seed-list "
      "a,b,...]\n"
      "                [--jitters 0,3,17] [--procs N] [--segments N] [--ops "
      "N]\n"
      "                [--blocks N] [--watchdog CYCLES] [--max-cycles N]\n"
      "                [--jobs N] [--no-check] [--inject-hang] [--host-metrics]\n"
      "                [--out FILE] [--progress] [--quiet]\n"
      "exit codes: 0 ok, 1 other failure, 2 usage, 3 watchdog/deadlock,\n"
      "            4 invariant violation\n");
}

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    std::string v;
    if (harness::take_value("--protocols", argc, argv, i, v)) {
      o.protocols.clear();
      for (const std::string& s : harness::split_list("--protocols", v))
        o.protocols.push_back(harness::parse_protocol("--protocols", s));
    } else if (harness::take_value("--seeds", argc, argv, i, v)) {
      o.seed_count = harness::parse_uint("--seeds", v, 1);
    } else if (harness::take_value("--seed-list", argc, argv, i, v)) {
      o.seeds.clear();
      for (const std::string& s : harness::split_list("--seed-list", v))
        o.seeds.push_back(harness::parse_u64("--seed-list", s));
    } else if (harness::take_value("--jitters", argc, argv, i, v)) {
      o.jitters.clear();
      for (const std::string& s : harness::split_list("--jitters", v))
        o.jitters.push_back(harness::parse_u64("--jitters", s));
    } else if (harness::take_value("--procs", argc, argv, i, v)) {
      o.procs = harness::parse_procs("--procs", v);
    } else if (harness::take_value("--segments", argc, argv, i, v)) {
      o.segments = harness::parse_uint("--segments", v, 1);
    } else if (harness::take_value("--ops", argc, argv, i, v)) {
      o.ops = harness::parse_uint("--ops", v, 1);
    } else if (harness::take_value("--blocks", argc, argv, i, v)) {
      o.blocks = harness::parse_uint("--blocks", v, 1);
    } else if (harness::take_value("--watchdog", argc, argv, i, v)) {
      o.watchdog = harness::parse_u64("--watchdog", v);
    } else if (harness::take_value("--max-cycles", argc, argv, i, v)) {
      o.max_cycles = harness::parse_u64("--max-cycles", v, 1);
    } else if (harness::take_value("--jobs", argc, argv, i, v)) {
      o.jobs = harness::parse_uint("--jobs", v);
    } else if (a == "--no-check") {
      o.check = false;
    } else if (a == "--inject-hang") {
      o.inject_hang = true;
    } else if (a == "--host-metrics") {
      o.host_metrics = true;
    } else if (a == "--progress") {
      o.progress = true;
    } else if (a == "--quiet") {
      o.quiet = true;
    } else if (harness::take_value("--out", argc, argv, i, v)) {
      o.out = v;
    } else if (harness::is_help(a)) {
      usage();
      std::exit(0);
    } else {
      throw std::invalid_argument("unknown argument: " + a);
    }
  }
  if (o.seeds.empty())
    for (unsigned s = 1; s <= o.seed_count; ++s) o.seeds.push_back(s);
  return o;
}

harness::MachineConfig stress_machine(const Options& o, proto::Protocol proto,
                                      std::uint64_t seed, Cycle jitter) {
  harness::MachineConfig cfg;
  cfg.protocol = proto;
  cfg.nprocs = o.procs;
  cfg.max_cycles = o.max_cycles;
  cfg.watchdog_stall_cycles = o.watchdog;
  cfg.obs.check_invariants = o.check;
  cfg.obs.host_metrics = o.host_metrics;
  cfg.net.jitter_max = jitter;
  // Each cell draws its own jitter stream; tied to the cell seed so one
  // seed replays the cell exactly, including the perturbation.
  cfg.net.jitter_seed = sim::Rng::derive(seed, 0x717e5);
  return cfg;
}

std::vector<harness::SweepJob> build_grid(const Options& o) {
  std::vector<harness::SweepJob> jobs;
  for (proto::Protocol proto : o.protocols) {
    for (Cycle jitter : o.jitters) {
      for (std::uint64_t seed : o.seeds) {
        harness::SweepJob j;
        j.name = "stress/" + std::string(proto::to_string(proto)) + "/j" +
                 std::to_string(jitter) + "/s" + std::to_string(seed);
        j.machine = stress_machine(o, proto, seed, jitter);
        harness::StressParams sp;
        sp.seed = seed;
        sp.segments = o.segments;
        sp.ops_per_segment = o.ops;
        sp.data_blocks = o.blocks;
        j.runner = [sp](const harness::MachineConfig& cfg) {
          return harness::run_stress_cell(cfg, sp);
        };
        jobs.push_back(std::move(j));
      }
    }
  }
  if (o.inject_hang) {
    // A cell that can never finish: processor 0 spins on a word nobody
    // writes. Exercises the watchdog/deadlock reporting path end to end.
    harness::SweepJob j;
    j.name = "stress/inject-hang";
    j.machine = stress_machine(o, o.protocols.front(), 1, 0);
    j.runner = [](const harness::MachineConfig& cfg) {
      harness::Machine m(cfg);
      const Addr a = m.alloc().allocate_on(0, mem::kWordSize, "hang.word");
      std::vector<harness::Machine::Program> ps;
      ps.push_back([a](cpu::Cpu& c) -> sim::Task {
        co_await c.spin_until(a, [](std::uint64_t v) { return v == 1; });
      });
      m.run(ps);
      return harness::RunResult{};
    };
    jobs.push_back(std::move(j));
  }
  return jobs;
}

void write_doc(std::ostream& os, const Options& o,
               const std::vector<harness::SweepResult>& results) {
  stats::JsonWriter w(os);
  w.begin_object();
  w.key("schema").value(std::uint64_t{1});
  w.key("tool").value("ccstress");

  w.key("grid").begin_object();
  w.key("protocols").begin_array();
  for (proto::Protocol p : o.protocols) w.value(proto::to_string(p));
  w.end_array();
  w.key("seeds").begin_array();
  for (std::uint64_t s : o.seeds) w.value(s);
  w.end_array();
  w.key("jitters").begin_array();
  for (Cycle j : o.jitters) w.value(j);
  w.end_array();
  w.key("procs").value(o.procs);
  w.key("segments").value(o.segments);
  w.key("ops_per_segment").value(o.ops);
  w.key("data_blocks").value(o.blocks);
  w.key("watchdog_stall_cycles").value(o.watchdog);
  w.key("check_invariants").value(o.check);
  w.key("cells").value(static_cast<std::uint64_t>(results.size()));
  w.end_object();

  harness::write_sweep_cells(w, results);

  std::size_t ok = 0, deadlocks = 0, invariants = 0, other = 0;
  std::uint64_t total_checks = 0;
  for (const harness::SweepResult& r : results) {
    if (r.ok) {
      ++ok;
      total_checks += r.run.invariant_checks;
      continue;
    }
    switch (r.fail) {
      case harness::SweepResult::FailKind::Deadlock: ++deadlocks; break;
      case harness::SweepResult::FailKind::Invariant: ++invariants; break;
      default: ++other; break;
    }
  }
  w.key("summary").begin_object();
  w.key("cells").value(static_cast<std::uint64_t>(results.size()));
  w.key("ok").value(static_cast<std::uint64_t>(ok));
  w.key("deadlocks").value(static_cast<std::uint64_t>(deadlocks));
  w.key("invariant_violations").value(static_cast<std::uint64_t>(invariants));
  w.key("other_failures").value(static_cast<std::uint64_t>(other));
  w.key("invariant_checks").value(total_checks);
  w.end_object();

  w.end_object();
  os << '\n';
}

} // namespace

int main(int argc, char** argv) {
  try {
    const Options o = parse_args(argc, argv);
    const std::vector<harness::SweepJob> jobs = build_grid(o);
    const std::vector<harness::SweepResult> results =
        harness::run_sweep_reported(jobs, o.jobs, o.progress && !o.quiet);

    bool any_deadlock = false, any_invariant = false, any_other = false;
    for (const harness::SweepResult& r : results) {
      if (r.ok) continue;
      switch (r.fail) {
        case harness::SweepResult::FailKind::Deadlock: any_deadlock = true; break;
        case harness::SweepResult::FailKind::Invariant: any_invariant = true; break;
        default: any_other = true; break;
      }
    }

    if (o.out == "-") {
      write_doc(std::cout, o, results);
    } else {
      std::ofstream os(o.out);
      if (!os) throw std::runtime_error("cannot open output file: " + o.out);
      write_doc(os, o, results);
      if (!o.quiet)
        std::fprintf(stderr, "wrote %zu cell(s) to %s\n", results.size(),
                     o.out.c_str());
    }
    if (any_invariant) return 4;
    if (any_deadlock) return 3;
    if (any_other) return 1;
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    usage();
    return 2;
  }
}
