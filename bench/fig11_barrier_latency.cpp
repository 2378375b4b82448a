// Figure 11: performance of barriers in the synthetic program.
//
// Processors pass a barrier in a tight loop (5000 episodes); reported is
// the average episode latency (execution_time / episodes) per machine
// size, for centralized / dissemination / tree barriers under WI / PU / CU.
#include "bench_common.hpp"

using namespace ccbench;

namespace {

void body(const harness::BenchOptions& opts, harness::ObsSession& obs) {
  latency_figure(opts, obs, "barrier/proto",
                 {harness::BarrierKind::Central, harness::BarrierKind::Dissemination,
                  harness::BarrierKind::Tree});
}

} // namespace

int main(int argc, char** argv) {
  return bench_main(argc, argv, "Figure 11: average barrier episode latency (cycles)",
                    body);
}
