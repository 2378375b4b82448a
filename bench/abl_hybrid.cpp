// The paper's conclusion, executed: "for multiprocessors that can support
// more than one coherence protocol both the protocol and implementation
// should be taken into account when exploiting parallel constructs."
//
// A combined workload -- an MCS-lock critical section plus a CENTRALIZED
// barrier per round -- pits constructs whose best protocols DIFFER: the
// contended MCS lock wants CU (figure 8) while the centralized barrier
// wants WI at scale (figure 11). No pure machine can satisfy both; the
// hybrid machine binds the lock's data to CU and the barrier's counter to
// WI and should win at the larger sizes where the tension bites.
#include "bench_common.hpp"

using namespace ccbench;

namespace {

Cycle run_combined(harness::ObsSession& obs, const std::string& label,
                   proto::Protocol machine_proto, unsigned nprocs, int rounds,
                   bool bind) {
  harness::MachineConfig cfg;
  cfg.protocol = machine_proto;
  cfg.nprocs = nprocs;
  obs.configure(cfg, label + "/P" + std::to_string(nprocs));
  harness::Machine m(cfg);
  sync::McsLock lock(m);
  sync::CentralBarrier barrier(m);
  if (bind) {
    m.bind_protocol(lock.tail_addr(), mem::kWordSize, proto::Protocol::CU);
    for (NodeId i = 0; i < nprocs; ++i)
      m.bind_protocol(lock.qnode_addr(i), 2 * mem::kWordSize, proto::Protocol::CU);
    // count and sense share one block (figure 3): bind it to WI.
    m.bind_protocol(barrier.count_addr(), 2 * mem::kWordSize, proto::Protocol::WI);
  }
  const Cycle cycles = m.run_all([&, rounds](cpu::Cpu& c) -> sim::Task {
    for (int i = 0; i < rounds; ++i) {
      co_await lock.acquire(c);
      co_await c.think(50);
      co_await lock.release(c);
      co_await barrier.wait(c);
    }
  });
  harness::RunResult r;
  r.cycles = cycles;
  r.avg_latency = static_cast<double>(cycles) / static_cast<double>(rounds);
  r.counters = m.counters();
  r.samples = m.samples();
  r.hot = m.hot_blocks();
  obs.record(r);
  return cycles;
}

void body(const harness::BenchOptions& opts, harness::ObsSession& obs) {
  const int rounds = static_cast<int>(harness::scaled(opts.scale, 2000));
  std::vector<std::string> headers{"machine"};
  for (unsigned p : opts.procs) headers.push_back("P=" + std::to_string(p));
  harness::Table t(std::move(headers));

  const auto row = [&](const char* name, auto&& run) {
    std::vector<std::string> cells{name};
    for (unsigned p : opts.procs)
      cells.push_back(harness::Table::num(
          static_cast<double>(run(p)) / static_cast<double>(rounds), 1));
    t.add_row(std::move(cells));
  };
  row("pure WI", [&](unsigned p) { return run_combined(obs, "WI", proto::Protocol::WI, p, rounds, false); });
  row("pure PU", [&](unsigned p) { return run_combined(obs, "PU", proto::Protocol::PU, p, rounds, false); });
  row("pure CU", [&](unsigned p) { return run_combined(obs, "CU", proto::Protocol::CU, p, rounds, false); });
  row("hybrid (lock=CU, barrier=WI)",
      [&](unsigned p) { return run_combined(obs, "hybrid", proto::Protocol::Hybrid, p, rounds, true); });
  print_table(t, opts);
  if (!opts.csv)
    std::printf("\nrows are cycles per round (one critical section + one "
                "barrier episode)\n");
}

} // namespace

int main(int argc, char** argv) {
  return bench_main(argc, argv,
                    "Hybrid machine: per-construct protocol binding vs pure "
                    "machines (combined lock+barrier workload)",
                    body);
}
