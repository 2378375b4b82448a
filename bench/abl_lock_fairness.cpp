// Extension ablation: lock FAIRNESS, which the paper's averages cannot
// show. Per-acquire wait-time distributions (p50/p99/max) for the five
// lock algorithms under the three protocols at P=32: the FIFO locks
// (ticket, MCS) keep p99 ~ p50 while the unfair test-and-set variants grow
// long tails, and the coherence protocol modulates how heavy those tails
// get (update protocols wake all contenders at once; WI hands the line to
// whoever refetches first).
#include "bench_common.hpp"

#include <memory>

using namespace ccbench;

namespace {

void body(const harness::BenchOptions& opts, harness::ObsSession& obs) {
  struct Algo {
    const char* tag;
    std::function<std::unique_ptr<sync::Lock>(harness::Machine&)> make;
  };
  const Algo algos[] = {
      {"tas", [](harness::Machine& m) { return std::make_unique<sync::TasLock>(m); }},
      {"ttas",
       [](harness::Machine& m) { return std::make_unique<sync::TtasLock>(m); }},
      {"tk",
       [](harness::Machine& m) { return std::make_unique<sync::TicketLock>(m); }},
      {"MCS",
       [](harness::Machine& m) { return std::make_unique<sync::McsLock>(m); }},
  };

  const unsigned p = opts.procs.back();
  const std::uint64_t total = harness::scaled(opts.scale, 32000);
  harness::Table t({"lock/proto", "mean", "p50", "p99", "max", "p99/p50"});

  for (const Algo& algo : algos) {
    for (proto::Protocol proto : kProtocols) {
      harness::MachineConfig cfg;
      cfg.protocol = proto;
      cfg.nprocs = p;
      obs.configure(cfg,
                    series_label(algo.tag, proto) + "/P" + std::to_string(p));
      harness::Machine m(cfg);
      auto lock = algo.make(m);
      stats::LatencyHistogram h;
      const std::uint64_t iters = std::max<std::uint64_t>(1, total / p);
      m.run_all([&](cpu::Cpu& c) -> sim::Task {
        for (std::uint64_t i = 0; i < iters; ++i) {
          const Cycle t0 = c.queue().now();
          co_await lock->acquire(c);
          h.add(c.queue().now() - t0);
          co_await c.think(50);
          co_await lock->release(c);
        }
      });
      harness::RunResult r;
      r.avg_latency = h.mean();
      r.counters = m.counters();
      r.latency = h;
      r.samples = m.samples();
      r.hot = m.hot_blocks();
      obs.record(r);
      const double p50 = static_cast<double>(h.percentile(0.50));
      const double p99 = static_cast<double>(h.percentile(0.99));
      t.add_row({series_label(algo.tag, proto), harness::Table::num(h.mean(), 1),
                 harness::Table::num(static_cast<std::uint64_t>(p50)),
                 harness::Table::num(static_cast<std::uint64_t>(p99)),
                 harness::Table::num(h.max()),
                 harness::Table::num(p99 / std::max(1.0, p50), 1) + "x"});
    }
  }
  print_table(t, opts);
}

} // namespace

int main(int argc, char** argv) {
  return bench_main(argc, argv,
                    "Ablation: per-acquire wait distributions (fairness) at P=32",
                    body);
}
