// Figure 8: performance of spin locks in the synthetic program.
//
// Each processor acquires the lock, holds it for 50 cycles, releases, in a
// tight loop (32000/P iterations). Reported: the average latency of an
// acquire-release pair = execution_time / 32000 - 50, per machine size,
// for ticket / MCS / update-conscious-MCS under WI / PU / CU.
#include "bench_common.hpp"

using namespace ccbench;

namespace {

void body(const harness::BenchOptions& opts, harness::ObsSession& obs) {
  latency_figure(opts, obs, "lock/proto",
                 {harness::LockKind::Ticket, harness::LockKind::Mcs,
                  harness::LockKind::UcMcs});
}

} // namespace

int main(int argc, char** argv) {
  return bench_main(argc, argv,
                    "Figure 8: average acquire-release latency (cycles)", body);
}
