// Figure 10: update traffic of spin locks in the synthetic program (32
// procs), PU and CU only. Categories: useful (true sharing) / false
// sharing / proliferation / replacement / termination ("End") / drop.
#include "bench_common.hpp"

using namespace ccbench;

namespace {

void body(const harness::BenchOptions& opts, harness::ObsSession& obs) {
  traffic_figure(opts, obs, "lock/proto",
                 {harness::LockKind::Ticket, harness::LockKind::Mcs,
                  harness::LockKind::UcMcs},
                 Traffic::Updates);
}

} // namespace

int main(int argc, char** argv) {
  return bench_main(argc, argv, "Figure 10: lock update traffic at P=32", body);
}
