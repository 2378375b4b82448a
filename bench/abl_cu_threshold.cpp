// Ablation (design choice, DESIGN.md): the competitive-update threshold.
//
// The paper fixes the per-block counter threshold at 4; this sweeps it
// over {1, 2, 4, 8, 16} on the lock and barrier workloads to show the
// trade-off between update suppression (drops/prunes) and drop misses.
#include "bench_common.hpp"

using namespace ccbench;

namespace {

void body(const harness::BenchOptions& opts, harness::ObsSession& obs) {
  const unsigned p = opts.procs.back();

  harness::Table t({"workload", "thresh", "avg-lat", "misses", "drop-miss",
                    "updates", "drops"});
  for (unsigned thresh : {1u, 2u, 4u, 8u, 16u}) {
    {
      harness::MachineConfig cfg;
      cfg.protocol = proto::Protocol::CU;
      cfg.nprocs = p;
      cfg.cu_threshold = thresh;
      harness::LockParams params;
      params.total_acquires = harness::scaled(opts.scale, 32000);
      obs.configure(cfg, "MCS/t" + std::to_string(thresh));
      const auto r = harness::run_lock_experiment(cfg, harness::LockKind::Mcs, params);
      obs.record(r);
      t.add_row({"MCS lock", harness::Table::num(std::uint64_t{thresh}),
                 harness::Table::num(r.avg_latency, 1),
                 harness::Table::num(r.counters.misses.total()),
                 harness::Table::num(r.counters.misses[stats::MissClass::Drop]),
                 harness::Table::num(r.counters.updates.total()),
                 harness::Table::num(r.counters.updates[stats::UpdateClass::Drop])});
    }
    {
      harness::MachineConfig cfg;
      cfg.protocol = proto::Protocol::CU;
      cfg.nprocs = p;
      cfg.cu_threshold = thresh;
      obs.configure(cfg, "cb/t" + std::to_string(thresh));
      const auto r = harness::run_barrier_experiment(
          cfg, harness::BarrierKind::Central, {harness::scaled(opts.scale, 5000)});
      obs.record(r);
      t.add_row({"central barrier", harness::Table::num(std::uint64_t{thresh}),
                 harness::Table::num(r.avg_latency, 1),
                 harness::Table::num(r.counters.misses.total()),
                 harness::Table::num(r.counters.misses[stats::MissClass::Drop]),
                 harness::Table::num(r.counters.updates.total()),
                 harness::Table::num(r.counters.updates[stats::UpdateClass::Drop])});
    }
  }
  print_table(t, opts);
}

} // namespace

int main(int argc, char** argv) {
  return bench_main(argc, argv,
                    "Ablation: competitive-update threshold sweep (CU, P=32)", body);
}
