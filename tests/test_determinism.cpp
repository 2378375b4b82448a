// Determinism: identical configuration => identical cycle counts and
// traffic, across every protocol and construct. This is the invariant that
// makes the figure benches reproducible.
#include "ccsim.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <sstream>
#include <string_view>

namespace {

using namespace ccsim;
using harness::BarrierKind;
using harness::LockKind;
using harness::MachineConfig;
using harness::ReductionKind;
using proto::Protocol;

MachineConfig cfg_of(Protocol p, unsigned n) {
  MachineConfig c;
  c.protocol = p;
  c.nprocs = n;
  return c;
}

void expect_equal(const harness::RunResult& a, const harness::RunResult& b,
                  const char* what) {
  EXPECT_EQ(a.cycles, b.cycles) << what;
  EXPECT_EQ(a.counters.misses.by, b.counters.misses.by) << what;
  EXPECT_EQ(a.counters.updates.by, b.counters.updates.by) << what;
  EXPECT_EQ(a.counters.net.messages, b.counters.net.messages) << what;
  EXPECT_EQ(a.counters.net.flits, b.counters.net.flits) << what;
}

TEST(Determinism, LockExperimentsAreBitExact) {
  for (Protocol p : {Protocol::WI, Protocol::PU, Protocol::CU}) {
    for (LockKind k : {LockKind::Ticket, LockKind::Mcs, LockKind::UcMcs}) {
      const harness::LockParams params{.total_acquires = 200};
      const auto a = harness::run_lock_experiment(cfg_of(p, 8), k, params);
      const auto b = harness::run_lock_experiment(cfg_of(p, 8), k, params);
      expect_equal(a, b, to_string(k).data());
    }
  }
}

TEST(Determinism, BarrierExperimentsAreBitExact) {
  for (Protocol p : {Protocol::WI, Protocol::PU, Protocol::CU}) {
    for (BarrierKind k :
         {BarrierKind::Central, BarrierKind::Dissemination, BarrierKind::Tree}) {
      const harness::BarrierParams params{.episodes = 60};
      const auto a = harness::run_barrier_experiment(cfg_of(p, 8), k, params);
      const auto b = harness::run_barrier_experiment(cfg_of(p, 8), k, params);
      expect_equal(a, b, to_string(k).data());
    }
  }
}

TEST(Determinism, ReductionExperimentsAreBitExact) {
  for (Protocol p : {Protocol::WI, Protocol::PU, Protocol::CU}) {
    for (ReductionKind k : {ReductionKind::Parallel, ReductionKind::Sequential}) {
      const harness::ReductionParams params{.rounds = 40};
      const auto a = harness::run_reduction_experiment(cfg_of(p, 8), k, params);
      const auto b = harness::run_reduction_experiment(cfg_of(p, 8), k, params);
      expect_equal(a, b, to_string(k).data());
    }
  }
}

/// FNV-1a 64-bit hash of `s`.
std::uint64_t fnv1a64(std::string_view s) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

/// Hash of the JSONL trace of one run: every message send and receipt,
/// its cycle, endpoints, address and payload, in simulation order.
std::uint64_t message_stream_digest(Protocol p,
                                    const std::function<void(const MachineConfig&)>& run) {
  std::ostringstream os;
  obs::JsonlSink sink(os);
  MachineConfig c = cfg_of(p, 4);
  c.obs.sink = &sink;
  run(c);
  return fnv1a64(os.str());
}

TEST(Determinism, MessageStreamDigestIsPinned) {
  // BENCH_ppopp97.json pins cycles and counters; this pins which messages
  // are sent, in what order and at which cycles. A refactor of the
  // protocol engines or the message path must leave these hashes alone.
  const Protocol protocols[] = {Protocol::WI, Protocol::PU, Protocol::CU};
  // Per protocol: ticket lock, central barrier, sequential reduction.
  const std::uint64_t pinned[3][3] = {
      {0xf29e855f6f162947ULL, 0x61d585cfe8056efbULL, 0x7d628c7d48219e53ULL},
      {0x0718e72049dac75eULL, 0x8c4eb36ff073c7c4ULL, 0xa62b4c3630591b7bULL},
      {0xa7ece1fd6c794a25ULL, 0x8c4eb36ff073c7c4ULL, 0xbd04c41eabab3419ULL},
  };
  for (int i = 0; i < 3; ++i) {
    const Protocol p = protocols[i];
    EXPECT_EQ(message_stream_digest(p, [](const MachineConfig& c) {
                harness::run_lock_experiment(c, LockKind::Ticket, {.total_acquires = 24});
              }),
              pinned[i][0])
        << to_string(p) << " ticket";
    EXPECT_EQ(message_stream_digest(p, [](const MachineConfig& c) {
                harness::run_barrier_experiment(c, BarrierKind::Central, {.episodes = 8});
              }),
              pinned[i][1])
        << to_string(p) << " central";
    EXPECT_EQ(message_stream_digest(p, [](const MachineConfig& c) {
                harness::run_reduction_experiment(c, ReductionKind::Sequential,
                                                  {.rounds = 8});
              }),
              pinned[i][2])
        << to_string(p) << " sequential";
  }
}

TEST(Determinism, SeedChangesChangeVariantTiming) {
  harness::LockParams a{.total_acquires = 200};
  a.random_pause_max = 300;
  a.seed = 1;
  harness::LockParams b = a;
  b.seed = 2;
  const auto ra = harness::run_lock_experiment(cfg_of(Protocol::WI, 8),
                                               LockKind::Ticket, a);
  const auto rb = harness::run_lock_experiment(cfg_of(Protocol::WI, 8),
                                               LockKind::Ticket, b);
  EXPECT_NE(ra.cycles, rb.cycles) << "different seeds should perturb timing";
}

} // namespace
