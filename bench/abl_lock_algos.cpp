// Extension ablation: the full MCS'91 lock set -- test-and-set and
// test-and-test&set with exponential backoff alongside the paper's ticket
// and MCS locks -- under all three protocols. The paper picked ticket and
// MCS because earlier WI studies showed the centralized lock ideal at low
// contention and MCS at high contention; this table shows where the
// simpler locks land once update protocols enter the picture.
#include "bench_common.hpp"

#include <memory>

using namespace ccbench;

namespace {

struct Algo {
  const char* tag;
  std::function<std::unique_ptr<sync::Lock>(harness::Machine&)> make;
};

void body(const harness::BenchOptions& opts, harness::ObsSession& obs) {
  const Algo algos[] = {
      {"tas", [](harness::Machine& m) { return std::make_unique<sync::TasLock>(m); }},
      {"ttas",
       [](harness::Machine& m) { return std::make_unique<sync::TtasLock>(m); }},
      {"tk",
       [](harness::Machine& m) { return std::make_unique<sync::TicketLock>(m); }},
      {"MCS",
       [](harness::Machine& m) { return std::make_unique<sync::McsLock>(m); }},
      {"uc",
       [](harness::Machine& m) { return std::make_unique<sync::McsLock>(m, true); }},
  };

  std::vector<std::string> headers{"lock/proto"};
  for (unsigned p : opts.procs) headers.push_back("P=" + std::to_string(p));
  harness::Table t(std::move(headers));

  const std::uint64_t total = harness::scaled(opts.scale, 32000);
  for (const Algo& algo : algos) {
    for (proto::Protocol proto : kProtocols) {
      std::vector<std::string> row{series_label(algo.tag, proto)};
      for (unsigned p : opts.procs) {
        harness::MachineConfig cfg;
        cfg.protocol = proto;
        cfg.nprocs = p;
        obs.configure(cfg, series_label(algo.tag, proto) + "/P" +
                               std::to_string(p));
        harness::Machine m(cfg);
        auto lock = algo.make(m);
        const std::uint64_t iters = std::max<std::uint64_t>(1, total / p);
        const Cycle cycles = m.run_all([&](cpu::Cpu& c) -> sim::Task {
          for (std::uint64_t i = 0; i < iters; ++i) {
            co_await lock->acquire(c);
            co_await c.think(50);
            co_await lock->release(c);
          }
        });
        const double avg =
            static_cast<double>(cycles) / static_cast<double>(iters * p) - 50.0;
        harness::RunResult r;
        r.cycles = cycles;
        r.avg_latency = avg;
        r.counters = m.counters();
        r.samples = m.samples();
        r.hot = m.hot_blocks();
        obs.record(r);
        row.push_back(harness::Table::num(avg, 1));
      }
      t.add_row(std::move(row));
    }
  }
  print_table(t, opts);
}

} // namespace

int main(int argc, char** argv) {
  return bench_main(argc, argv,
                    "Ablation: TAS/TTAS/ticket/MCS/uc-MCS across protocols "
                    "(avg acquire-release latency)",
                    body);
}
