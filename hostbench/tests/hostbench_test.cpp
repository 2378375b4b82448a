// Tests of the benchmark's own machinery: the traffic replay must
// reproduce a recorded run exactly (with and without network jitter) and
// reject a corrupted recording; workloads must be pure functions of the
// seed; digests must ignore observers.
#include "bench.hpp"

#include "harness/stress.hpp"

#include <gtest/gtest.h>

namespace hostbench {
namespace {

struct Recorded {
  harness::MachineConfig cfg;
  harness::RunResult result;
  std::vector<NetRecord> records;
};

Recorded record_stress(proto::Protocol p, Cycle jitter_max) {
  Recorded rec;
  rec.cfg.protocol = p;
  rec.cfg.nprocs = 4;
  rec.cfg.net.jitter_max = jitter_max;
  rec.cfg.net.jitter_seed = 42;
  NetRecorder recorder;
  rec.cfg.obs.sink = &recorder;
  harness::StressParams sp;
  sp.seed = 7;
  sp.segments = 2;
  sp.ops_per_segment = 16;
  rec.result = harness::run_stress_cell(rec.cfg, sp);
  rec.records = recorder.records();
  return rec;
}

ReplayReport replay_of(const Recorded& rec) {
  return replay(rec.records, rec.cfg.nprocs, rec.cfg.net, rec.result.counters.net, 1);
}

TEST(Replay, ReproducesAJitteredCell) {
  for (proto::Protocol p : {proto::Protocol::WI, proto::Protocol::PU}) {
    const Recorded rec = record_stress(p, 5);
    const ReplayReport rep = replay_of(rec);
    EXPECT_EQ(rep.error, "") << proto::to_string(p);
    EXPECT_GT(rep.remote_messages, 0u);
    EXPECT_EQ(rep.queue_events, 2 * rep.messages);
  }
}

TEST(Replay, ReproducesAnUnjitteredLockCell) {
  harness::MachineConfig cfg;
  cfg.protocol = proto::Protocol::CU;
  cfg.nprocs = 8;
  NetRecorder recorder;
  cfg.obs.sink = &recorder;
  harness::LockParams lp;
  lp.total_acquires = 64;
  const harness::RunResult r =
      harness::run_lock_experiment(cfg, harness::LockKind::Ticket, lp);
  const ReplayReport rep = replay(recorder.records(), cfg.nprocs, cfg.net,
                                  r.counters.net, 1);
  EXPECT_EQ(rep.error, "");
  EXPECT_GT(rep.block_messages, 0u);
}

TEST(Replay, RejectsACorruptedDeliveryCycle) {
  Recorded rec = record_stress(proto::Protocol::WI, 5);
  for (NetRecord& r : rec.records) {
    if (!r.send && r.src != r.dst) {
      r.cycle += 1;
      break;
    }
  }
  EXPECT_NE(replay_of(rec).error.find("delivered at cycle"), std::string::npos);
}

TEST(Replay, RejectsADroppedDelivery) {
  Recorded rec = record_stress(proto::Protocol::PU, 3);
  for (auto it = rec.records.begin(); it != rec.records.end(); ++it) {
    if (!it->send) {
      rec.records.erase(it);
      break;
    }
  }
  EXPECT_NE(replay_of(rec).error.find("never delivered"), std::string::npos);
}

TEST(Replay, RejectsCountsThatDisagreeWithTheCell) {
  Recorded rec = record_stress(proto::Protocol::WI, 0);
  ++rec.result.counters.net.by_type[0];
  EXPECT_NE(replay_of(rec).error.find("counts differ"), std::string::npos);
}

TEST(Workloads, ArePureFunctionsOfTheSeed) {
  for (const std::string& name : workload_names()) {
    const Workload a = make_workload(name, 5);
    const Workload b = make_workload(name, 5);
    ASSERT_EQ(a.cells.size(), b.cells.size());
    for (std::size_t i = 0; i < a.cells.size(); ++i)
      EXPECT_EQ(a.cells[i].key, b.cells[i].key);
  }
  EXPECT_NE(make_workload("checked_stress", 5).cells[0].key,
            make_workload("checked_stress", 6).cells[0].key);
  // The paper's tight loops do not consult their seeds.
  EXPECT_EQ(make_workload("update_storm", 5).cells[0].key,
            make_workload("update_storm", 6).cells[0].key);
  EXPECT_THROW((void)make_workload("no_such_workload", 1), std::invalid_argument);
}

TEST(Digests, IgnoreObserversButNotResults) {
  harness::MachineConfig cfg;
  cfg.protocol = proto::Protocol::PU;
  cfg.nprocs = 4;
  harness::BarrierParams bp;
  bp.episodes = 20;
  const harness::RunResult plain =
      harness::run_barrier_experiment(cfg, harness::BarrierKind::Central, bp);
  cfg.obs.profile = true;
  cfg.obs.host_metrics = true;
  const harness::RunResult observed =
      harness::run_barrier_experiment(cfg, harness::BarrierKind::Central, bp);
  EXPECT_EQ(core_digest(plain), core_digest(observed));
  EXPECT_EQ(run_json(observed).find("\"host\""), std::string::npos);
  harness::RunResult changed = plain;
  ++changed.cycles;
  EXPECT_NE(core_digest(plain), core_digest(changed));
}

} // namespace
} // namespace hostbench
