// Figure 12: miss traffic of barriers in the synthetic program (32 procs).
#include "bench_common.hpp"

using namespace ccbench;

namespace {

void body(const harness::BenchOptions& opts, harness::ObsSession& obs) {
  traffic_figure(opts, obs, "barrier/proto",
                 {harness::BarrierKind::Central, harness::BarrierKind::Dissemination,
                  harness::BarrierKind::Tree},
                 Traffic::Misses);
}

} // namespace

int main(int argc, char** argv) {
  return bench_main(argc, argv, "Figure 12: barrier cache-miss traffic at P=32", body);
}
