// Figure 16: update traffic of reductions in the synthetic program (32
// procs), PU and CU only.
#include "bench_common.hpp"

using namespace ccbench;

namespace {

void body(const harness::BenchOptions& opts, harness::ObsSession& obs) {
  traffic_figure(opts, obs, "red/proto",
                 {harness::ReductionKind::Sequential, harness::ReductionKind::Parallel},
                 Traffic::Updates);
}

} // namespace

int main(int argc, char** argv) {
  return bench_main(argc, argv, "Figure 16: reduction update traffic at P=32", body);
}
