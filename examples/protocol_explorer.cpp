// Protocol explorer: run any construct under any protocol at any machine
// size and print the latency plus full categorized traffic -- the tool for
// answering "which implementation should I use on THIS machine?"
//
//   $ ./protocol_explorer <lock|barrier|reduction> <impl> <WI|PU|CU> [P] [obs flags]
//
//   impl: ticket | mcs | ucmcs        (locks)
//         central | dissem | tree     (barriers)
//         parallel | sequential       (reductions)
//
//   Observability flags (--json, --trace-out, --trace-format,
//   --sample-interval, --hot-top) are accepted after the positionals.
//
//   $ ./protocol_explorer lock mcs CU 32
//   $ ./protocol_explorer barrier dissem PU 16 --json mcs.json --trace-out t.json
#include "ccsim.hpp"
#include "harness/cli.hpp"
#include "harness/obs_session.hpp"

#include <iostream>
#include <string>

using namespace ccsim;

namespace {

int usage() {
  std::cerr << "usage: protocol_explorer <lock|barrier|reduction> <impl> "
               "<WI|PU|CU> [nprocs] [--json FILE] [--trace-out FILE]\n"
               "                         [--trace-format ring|jsonl|perfetto] "
               "[--sample-interval N] [--hot-top K]\n"
               "  lock impls:      ticket mcs ucmcs\n"
               "  barrier impls:   central dissem tree\n"
               "  reduction impls: parallel sequential\n";
  return 1;
}

} // namespace

int main(int argc, char** argv) {
  if (argc < 4) return usage();
  const std::string family = argv[1];
  const std::string impl = argv[2];

  harness::MachineConfig cfg;
  try {
    cfg.protocol = harness::parse_protocol("protocol", argv[3]);
    int i = 4;
    if (i < argc && argv[i][0] != '-') {
      cfg.nprocs = harness::parse_procs("nprocs", argv[i]);
      ++i;
    }
    harness::ObsOptions obs_opts;
    for (; i < argc; ++i)
      if (!harness::parse_obs_arg(obs_opts, argc, argv, i)) return usage();
    harness::ObsSession obs(obs_opts, "protocol_explorer");
    obs.configure(cfg, family + "/" + impl + "/" +
                           std::string(proto::to_string(cfg.protocol)));

    harness::RunResult r;
    std::string metric;
    if (family == "lock") {
      harness::LockKind k;
      if (impl == "ticket")
        k = harness::LockKind::Ticket;
      else if (impl == "mcs")
        k = harness::LockKind::Mcs;
      else if (impl == "ucmcs")
        k = harness::LockKind::UcMcs;
      else
        return usage();
      r = harness::run_lock_experiment(cfg, k, {.total_acquires = 3200});
      metric = "avg acquire-release latency";
    } else if (family == "barrier") {
      harness::BarrierKind k;
      if (impl == "central")
        k = harness::BarrierKind::Central;
      else if (impl == "dissem")
        k = harness::BarrierKind::Dissemination;
      else if (impl == "tree")
        k = harness::BarrierKind::Tree;
      else
        return usage();
      r = harness::run_barrier_experiment(cfg, k, {.episodes = 500});
      metric = "avg barrier episode latency";
    } else if (family == "reduction") {
      harness::ReductionKind k;
      if (impl == "parallel")
        k = harness::ReductionKind::Parallel;
      else if (impl == "sequential")
        k = harness::ReductionKind::Sequential;
      else
        return usage();
      r = harness::run_reduction_experiment(cfg, k, {.rounds = 500});
      metric = "avg reduction latency";
    } else {
      return usage();
    }

    std::cout << family << "/" << impl << " under " << proto::to_string(cfg.protocol)
              << " on " << cfg.nprocs << " processors\n";
    std::cout << metric << ": " << r.avg_latency << " cycles\n";
    std::cout << "total simulated cycles: " << r.cycles << "\n\n";
    stats::print_report(std::cout, r.counters);
    if (!r.hot.empty()) {
      std::cout << "\nhottest blocks (by attributed traffic):\n";
      for (const auto& row : r.hot) {
        std::cout << "  0x" << std::hex << row.base << std::dec;
        if (!row.name.empty()) std::cout << " (" << row.name << ")";
        std::cout << ": score=" << row.cell.score()
                  << " misses=" << row.cell.miss_total()
                  << " updates=" << row.cell.update_total()
                  << " invals=" << row.cell.invals
                  << " home_txns=" << row.cell.home_txns << "\n";
      }
    }
    obs.record(r);
    obs.finish();
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
