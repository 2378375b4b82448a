// Figure 14: performance of reductions in the synthetic program.
//
// Each processor performs 5000 max-reductions in a tight loop,
// synchronized by zero-traffic (magic) lock/barrier so only the
// reduction's own communication is measured. Reported: the average
// latency of a whole reduction (execution_time / rounds), for parallel
// vs sequential reductions under WI / PU / CU.
#include "bench_common.hpp"

using namespace ccbench;

namespace {

void body(const harness::BenchOptions& opts, harness::ObsSession& obs) {
  latency_figure(opts, obs, "red/proto",
                 {harness::ReductionKind::Sequential, harness::ReductionKind::Parallel});
}

} // namespace

int main(int argc, char** argv) {
  return bench_main(argc, argv, "Figure 14: average reduction latency (cycles)", body);
}
