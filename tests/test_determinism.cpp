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

/// Feeds one run's trace to two sinks.
class TeeSink : public obs::TraceSink {
public:
  TeeSink(obs::TraceSink& a, obs::TraceSink& b) : a_(a), b_(b) {}
  void on_event(const obs::TraceEvent& e) override {
    a_.on_event(e);
    b_.on_event(e);
  }

private:
  obs::TraceSink& a_;
  obs::TraceSink& b_;
};

struct StreamDigests {
  std::uint64_t jsonl;  ///< every field of every event
  std::uint64_t text;   ///< the lines TraceLog::tail() and checker reports print
};

/// Hashes of one run's message stream -- every message send and receipt,
/// its cycle, endpoints, address and payload, in simulation order -- in
/// the JSONL rendering and in the TextSink (format_event) rendering.
StreamDigests message_stream_digests(
    Protocol p, const std::function<void(const MachineConfig&)>& run) {
  std::ostringstream jsonl;
  std::ostringstream text;
  obs::JsonlSink jsonl_sink(jsonl);
  obs::TextSink text_sink(text);
  TeeSink tee(jsonl_sink, text_sink);
  MachineConfig c = cfg_of(p, 4);
  c.obs.sink = &tee;
  run(c);
  return {fnv1a64(jsonl.str()), fnv1a64(text.str())};
}

TEST(Determinism, MessageStreamDigestIsPinned) {
  // BENCH_ppopp97.json pins cycles and counters; this pins which messages
  // are sent, in what order and at which cycles. A refactor of the
  // protocol engines or the message path must leave these hashes alone.
  // The text hashes also pin format_event, which renders the trace tail
  // of deadlock reports and invariant-violation reports.
  const Protocol protocols[] = {Protocol::WI, Protocol::PU, Protocol::CU};
  // Per protocol: ticket lock, central barrier, sequential reduction.
  const std::function<void(const MachineConfig&)> cells[] = {
      [](const MachineConfig& c) {
        harness::run_lock_experiment(c, LockKind::Ticket, {.total_acquires = 24});
      },
      [](const MachineConfig& c) {
        harness::run_barrier_experiment(c, BarrierKind::Central, {.episodes = 8});
      },
      [](const MachineConfig& c) {
        harness::run_reduction_experiment(c, ReductionKind::Sequential, {.rounds = 8});
      },
  };
  const char* const cell_names[] = {"ticket", "central", "sequential"};
  const std::uint64_t jsonl_pinned[3][3] = {
      {0xf29e855f6f162947ULL, 0x61d585cfe8056efbULL, 0x7d628c7d48219e53ULL},
      {0x0718e72049dac75eULL, 0x8c4eb36ff073c7c4ULL, 0xa62b4c3630591b7bULL},
      {0xa7ece1fd6c794a25ULL, 0x8c4eb36ff073c7c4ULL, 0xbd04c41eabab3419ULL},
  };
  const std::uint64_t text_pinned[3][3] = {
      {0x48b733154be7078cULL, 0x22bf4ef77e0c73d6ULL, 0x9fd66c38852d2be5ULL},
      {0x20aaee747113f498ULL, 0xd4f53f7ceeeed7dcULL, 0xa1cdb0f8b498cfa3ULL},
      {0x508d1e59b8cf7fbdULL, 0xd4f53f7ceeeed7dcULL, 0xff6af7d78bfdf7f2ULL},
  };
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      const StreamDigests d = message_stream_digests(protocols[i], cells[j]);
      EXPECT_EQ(d.jsonl, jsonl_pinned[i][j]) << to_string(protocols[i]) << ' '
                                             << cell_names[j] << " jsonl";
      EXPECT_EQ(d.text, text_pinned[i][j])
          << to_string(protocols[i]) << ' ' << cell_names[j] << " text 0x"
          << std::hex << d.text;
    }
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
