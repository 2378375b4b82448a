// Application-level protocol comparison: the four kernels under the three
// protocols, with correctness enforced on every run. This is the paper's
// bottom line exercised end to end: construct and protocol choices visible
// in whole-application cycles, not just microbenchmark latencies.
#include "apps/kernels.hpp"
#include "bench_common.hpp"

using namespace ccbench;

namespace {

void body(const harness::BenchOptions& opts, harness::ObsSession& obs) {
  const unsigned p = opts.procs.back();
  harness::Table t({"kernel/proto", "cycles", "misses", "updates", "useful-upd"});

  // The kernels build their MachineConfig internally, so the session's
  // settings travel through a scratch config's ObsConfig.
  harness::MachineConfig ocfg;
  const auto emit = [&](const std::string& name, auto&& run_kernel) {
    obs.configure(ocfg, name);
    const apps::KernelResult r = run_kernel(&ocfg.obs);
    if (!r.correct) throw std::runtime_error(name + ": oracle check FAILED");
    harness::RunResult rr;
    rr.cycles = r.cycles;
    rr.counters = r.counters;
    rr.samples = r.samples;
    rr.hot = r.hot;
    obs.record(rr);
    t.add_row({name, harness::Table::num(r.cycles),
               harness::Table::num(r.counters.misses.total()),
               harness::Table::num(r.counters.updates.total()),
               harness::Table::num(r.counters.updates.useful())});
  };

  for (proto::Protocol proto : kProtocols) {
    const std::string tag = std::string(proto::to_string(proto));
    apps::SorParams sor;
    sor.sweeps = static_cast<int>(harness::scaled(opts.scale, 640));
    emit("sor/" + tag, [&](const harness::ObsConfig* o) {
      return apps::run_sor(proto, p, sor, o);
    });

    apps::HistogramParams hist;
    hist.items_per_proc = static_cast<unsigned>(harness::scaled(opts.scale, 1280));
    emit("histogram/" + tag, [&](const harness::ObsConfig* o) {
      return apps::run_histogram(proto, p, hist, o);
    });

    apps::NbodyParams nb;
    nb.steps = static_cast<int>(harness::scaled(opts.scale, 320));
    emit("nbody-pr/" + tag, [&](const harness::ObsConfig* o) {
      return apps::run_nbody_step(proto, p, nb, o);
    });
    nb.parallel_reduction = false;
    emit("nbody-sr/" + tag, [&](const harness::ObsConfig* o) {
      return apps::run_nbody_step(proto, p, nb, o);
    });

    apps::PipelineParams pipe;
    pipe.items = static_cast<unsigned>(harness::scaled(opts.scale, 2560));
    emit("pipeline/" + tag, [&](const harness::ObsConfig* o) {
      return apps::run_pipeline(proto, p, pipe, o);
    });

    apps::MatmulParams mat;
    mat.dim = 16;
    emit("matmul/" + tag, [&](const harness::ObsConfig* o) {
      return apps::run_matmul(proto, p, mat, o);
    });
  }
  print_table(t, opts);
}

} // namespace

int main(int argc, char** argv) {
  return bench_main(argc, argv,
                    "Application kernel suite across protocols (P=32, "
                    "oracle-checked)",
                    body);
}
