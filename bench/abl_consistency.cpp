// Ablation (design choice, section 3.1): release vs sequential
// consistency. The paper's machine uses RC -- the write buffer stalls only
// at releases. This sweep quantifies what the constructs pay if every
// shared store must instead be globally performed before the processor
// continues (SC), per protocol.
#include "bench_common.hpp"

using namespace ccbench;

namespace {

void body(const harness::BenchOptions& opts, harness::ObsSession& obs) {
  const unsigned p = opts.procs.back();
  harness::Table t({"experiment", "RC", "SC", "SC/RC"});

  const auto row = [&](const std::string& name, auto&& run) {
    const double rc = run(proto::Consistency::Release);
    const double sc = run(proto::Consistency::Sequential);
    t.add_row({name, harness::Table::num(rc, 1), harness::Table::num(sc, 1),
               harness::Table::num(sc / rc, 2) + "x"});
  };

  for (proto::Protocol proto : kProtocols) {
    row(std::string("lock MCS/") + std::string(proto::to_string(proto)),
        [&](proto::Consistency m) {
          harness::MachineConfig cfg;
          cfg.protocol = proto;
          cfg.nprocs = p;
          cfg.consistency = m;
          harness::LockParams params;
          params.total_acquires = harness::scaled(opts.scale, 32000);
          obs.configure(cfg, "MCS/" + std::string(proto::to_string(proto)) +
                                 (m == proto::Consistency::Release ? "/RC" : "/SC"));
          const auto r =
              harness::run_lock_experiment(cfg, harness::LockKind::Mcs, params);
          obs.record(r);
          return r.avg_latency;
        });
    row(std::string("barrier db/") + std::string(proto::to_string(proto)),
        [&](proto::Consistency m) {
          harness::MachineConfig cfg;
          cfg.protocol = proto;
          cfg.nprocs = p;
          cfg.consistency = m;
          obs.configure(cfg, "db/" + std::string(proto::to_string(proto)) +
                                 (m == proto::Consistency::Release ? "/RC" : "/SC"));
          const auto r =
              harness::run_barrier_experiment(cfg, harness::BarrierKind::Dissemination,
                                              {harness::scaled(opts.scale, 5000)});
          obs.record(r);
          return r.avg_latency;
        });
    row(std::string("reduction sr/") + std::string(proto::to_string(proto)),
        [&](proto::Consistency m) {
          harness::MachineConfig cfg;
          cfg.protocol = proto;
          cfg.nprocs = p;
          cfg.consistency = m;
          obs.configure(cfg, "sr/" + std::string(proto::to_string(proto)) +
                                 (m == proto::Consistency::Release ? "/RC" : "/SC"));
          const auto r = harness::run_reduction_experiment(
              cfg, harness::ReductionKind::Sequential,
              {.rounds = harness::scaled(opts.scale, 5000)});
          obs.record(r);
          return r.avg_latency;
        });
  }
  print_table(t, opts);
}

} // namespace

int main(int argc, char** argv) {
  return bench_main(argc, argv,
                    "Ablation: release vs sequential consistency (P=32)", body);
}
