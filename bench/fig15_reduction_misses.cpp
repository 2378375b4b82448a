// Figure 15: miss traffic of reductions in the synthetic program (32 procs).
#include "bench_common.hpp"

using namespace ccbench;

namespace {

void body(const harness::BenchOptions& opts, harness::ObsSession& obs) {
  traffic_figure(opts, obs, "red/proto",
                 {harness::ReductionKind::Sequential, harness::ReductionKind::Parallel},
                 Traffic::Misses);
}

} // namespace

int main(int argc, char** argv) {
  return bench_main(argc, argv, "Figure 15: reduction cache-miss traffic at P=32",
                    body);
}
