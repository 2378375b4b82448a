// Figure 9: miss traffic of spin locks in the synthetic program (32 procs).
//
// Categorized cache misses (cold / true / false sharing / eviction / drop)
// plus exclusive-request transactions, for each lock/protocol combination.
#include "bench_common.hpp"

using namespace ccbench;

namespace {

void body(const harness::BenchOptions& opts, harness::ObsSession& obs) {
  traffic_figure(opts, obs, "lock/proto",
                 {harness::LockKind::Ticket, harness::LockKind::Mcs,
                  harness::LockKind::UcMcs},
                 Traffic::Misses);
}

} // namespace

int main(int argc, char** argv) {
  return bench_main(argc, argv, "Figure 9: lock cache-miss traffic at P=32", body);
}
