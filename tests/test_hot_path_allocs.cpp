// Heap allocations per executed event on the simulation hot path.
//
// This binary replaces the global operator new with a counting one, runs
// the host benchmark's 32-processor construct cells and divides the
// allocations made during each run -- machine construction included -- by
// the events it executed. The update-protocol cells (PU/CU ticket lock and
// central barrier) keep the event queue deep with update multicasts; their
// events are queue records, pooled message deliveries and pooled replies,
// so they must stay well under one allocation per ten events. The WI
// cells still allocate in the home's transaction maps and the caches'
// MSHR map, so their bound is looser. The event queue on its own, once
// warmed, must not allocate at all.
#include "harness/workloads.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "sim/task.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>

namespace {
std::uint64_t g_allocs = 0;  // the simulator runs on this test's one thread
} // namespace

void* operator new(std::size_t n) {
  ++g_allocs;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace ccsim;
using harness::BarrierKind;
using harness::LockKind;
using proto::Protocol;

constexpr unsigned kProcs = 32;
constexpr std::uint64_t kAcquires = 1600;
constexpr std::uint64_t kEpisodes = 250;

harness::MachineConfig machine(Protocol p) {
  harness::MachineConfig cfg;
  cfg.protocol = p;
  cfg.nprocs = kProcs;
  cfg.obs.host_metrics = true;
  return cfg;
}

/// Allocations per executed event over one run of `run`.
template <class Run>
double allocs_per_event(Run run) {
  const std::uint64_t before = g_allocs;
  const harness::RunResult r = run();
  const std::uint64_t allocs = g_allocs - before;
  EXPECT_TRUE(r.host.enabled());
  EXPECT_GT(r.host.events_executed, 0u);
  const double per_event =
      static_cast<double>(allocs) / static_cast<double>(r.host.events_executed);
  std::printf("  %llu allocations / %llu events = %.4f per event\n",
              static_cast<unsigned long long>(allocs),
              static_cast<unsigned long long>(r.host.events_executed), per_event);
  return per_event;
}

double lock_cell(Protocol p, LockKind k) {
  return allocs_per_event([&] {
    return harness::run_lock_experiment(machine(p), k, {.total_acquires = kAcquires});
  });
}

double barrier_cell(Protocol p, BarrierKind k) {
  return allocs_per_event([&] {
    return harness::run_barrier_experiment(machine(p), k, {.episodes = kEpisodes});
  });
}

constexpr double kUpdateBound = 0.1;
constexpr double kWiBound = 0.75;

TEST(HotPathAllocs, CountingAllocatorSeesAllocations) {
  static void* volatile block = nullptr;
  const std::uint64_t before = g_allocs;
  block = ::operator new(16);
  EXPECT_EQ(g_allocs, before + 1);
  ::operator delete(block);
}

TEST(HotPathAllocs, UpdateTicketLock) {
  EXPECT_LE(lock_cell(Protocol::PU, LockKind::Ticket), kUpdateBound);
  EXPECT_LE(lock_cell(Protocol::CU, LockKind::Ticket), kUpdateBound);
}

TEST(HotPathAllocs, UpdateCentralBarrier) {
  EXPECT_LE(barrier_cell(Protocol::PU, BarrierKind::Central), kUpdateBound);
  EXPECT_LE(barrier_cell(Protocol::CU, BarrierKind::Central), kUpdateBound);
}

TEST(HotPathAllocs, WiLocks) {
  EXPECT_LE(lock_cell(Protocol::WI, LockKind::Ticket), kWiBound);
  EXPECT_LE(lock_cell(Protocol::WI, LockKind::Mcs), kWiBound);
}

TEST(HotPathAllocs, WiBarriers) {
  EXPECT_LE(barrier_cell(Protocol::WI, BarrierKind::Dissemination), kWiBound);
  EXPECT_LE(barrier_cell(Protocol::WI, BarrierKind::Tree), kWiBound);
}

/// Keeps a constant number of events pending, each of which schedules its
/// successor near (under 64 cycles) or far (past the wheel, through the
/// overflow heap), through a pooled thunk, an in-record or a slab-stored
/// callback; a coroutine sleeps alongside through resume_after().
struct QueueChurn {
  static constexpr std::size_t kPending = 600;
  sim::EventQueue q;
  sim::Rng rng{7};
  std::uint64_t left = 0;
  bool sleeping = true;

  static void fire(void* self, std::uint64_t) { static_cast<QueueChurn*>(self)->next(); }

  void next() {
    if (left == 0) return;
    --left;
    const Cycle t = q.now() + (rng.below(4) == 0 ? sim::EventQueue::kSpan + rng.below(4096)
                                                 : rng.below(64));
    const std::array<std::uint64_t, 3> pad{};
    switch (rng.below(3)) {
      case 0: q.schedule_thunk(t, &QueueChurn::fire, this, 0); break;
      case 1: q.schedule_at(t, [this] { next(); }); break;
      default: q.schedule_at(t, [this, pad] { next(); }); break;
    }
  }

  sim::Task sleeper() {
    while (sleeping) co_await sim::delay(q, 1 + rng.below(100));
  }

  /// Grow every pool to more than the churn's peak: the node pool and the
  /// callback slab with near slab callbacks, the overflow heap with far
  /// thunks.
  void warm() {
    const std::array<std::uint64_t, 3> pad{};
    for (std::size_t i = 0; i < kPending + 8; ++i) q.schedule(1, [pad] {});
    q.run();
    for (std::size_t i = 0; i < kPending + 8; ++i)
      q.schedule_thunk(q.now() + 2 * sim::EventQueue::kSpan, &QueueChurn::fire, this, 0);
    q.run();
  }
};

TEST(HotPathAllocs, WarmedQueueChurnsNearAndFarEventsWithoutAllocating) {
  QueueChurn c;
  c.warm();
  sim::Task t = c.sleeper();
  t.start();
  const std::uint64_t executed = c.q.executed();
  const std::uint64_t before = g_allocs;
  c.left = 200'000;
  for (std::size_t i = 0; i < QueueChurn::kPending; ++i) c.next();
  while (c.left != 0) ASSERT_TRUE(c.q.step());
  EXPECT_EQ(g_allocs - before, 0u);
  EXPECT_GT(c.q.executed() - executed, 199'000u);
  c.sleeping = false;
  c.q.run();
  EXPECT_TRUE(t.done());
}

} // namespace
