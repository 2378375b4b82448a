// Figure 13: update traffic of barriers in the synthetic program (32
// procs), PU and CU only.
#include "bench_common.hpp"

using namespace ccbench;

namespace {

void body(const harness::BenchOptions& opts, harness::ObsSession& obs) {
  traffic_figure(opts, obs, "barrier/proto",
                 {harness::BarrierKind::Central, harness::BarrierKind::Dissemination,
                  harness::BarrierKind::Tree},
                 Traffic::Updates);
}

} // namespace

int main(int argc, char** argv) {
  return bench_main(argc, argv, "Figure 13: barrier update traffic at P=32", body);
}
