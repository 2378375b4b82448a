// Extension ablation: MCS qnode layout -- the paper's packed shared array
// (four qnodes per block) versus block-padded qnodes homed at their
// owners. Padding removes the co-residence that makes spinners cache each
// other's qnodes, which under PU eliminates most proliferation updates --
// quantifying how much of the MCS-under-update problem is a pure layout
// artifact versus intrinsic to the algorithm (the tail-pointer sharing
// remains either way).
#include "bench_common.hpp"

using namespace ccbench;

namespace {

void body(const harness::BenchOptions& opts, harness::ObsSession& obs) {
  harness::Table t({"layout/proto", "avg-lat", "misses", "updates", "useful-upd",
                    "prolif-upd"});
  const unsigned p = opts.procs.back();
  const std::uint64_t total = harness::scaled(opts.scale, 32000);

  for (bool padded : {false, true}) {
    for (proto::Protocol proto : kProtocols) {
      harness::MachineConfig cfg;
      cfg.protocol = proto;
      cfg.nprocs = p;
      obs.configure(cfg, series_label(padded ? "padded" : "packed", proto));
      harness::Machine m(cfg);
      sync::McsLock lock(m, /*update_conscious=*/false, /*home=*/0, padded);
      const std::uint64_t iters = std::max<std::uint64_t>(1, total / p);
      const Cycle cycles = m.run_all([&](cpu::Cpu& c) -> sim::Task {
        for (std::uint64_t i = 0; i < iters; ++i) {
          co_await lock.acquire(c);
          co_await c.think(50);
          co_await lock.release(c);
        }
      });
      const double avg =
          static_cast<double>(cycles) / static_cast<double>(iters * p) - 50.0;
      const auto& ctr = m.counters();
      harness::RunResult r;
      r.cycles = cycles;
      r.avg_latency = avg;
      r.counters = ctr;
      r.samples = m.samples();
      r.hot = m.hot_blocks();
      obs.record(r);
      t.add_row({series_label(padded ? "padded" : "packed", proto),
                 harness::Table::num(avg, 1),
                 harness::Table::num(ctr.misses.total()),
                 harness::Table::num(ctr.updates.total()),
                 harness::Table::num(ctr.updates.useful()),
                 harness::Table::num(ctr.updates[stats::UpdateClass::Proliferation])});
    }
  }
  print_table(t, opts);
}

} // namespace

int main(int argc, char** argv) {
  return bench_main(argc, argv,
                    "Ablation: MCS qnode layout (packed vs padded) at P=32", body);
}
