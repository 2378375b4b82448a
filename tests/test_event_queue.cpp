// Unit tests for the discrete-event kernel.
#include "sim/event_queue.hpp"
#include "sim/slab.hpp"
#include "sim/task.hpp"

#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <string>
#include <vector>

namespace {

using ccsim::Cycle;
using ccsim::sim::EventQueue;

TEST(EventQueue, StartsAtZeroAndEmpty) {
  EventQueue q;
  EXPECT_EQ(q.now(), 0u);
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.step());
}

TEST(EventQueue, RunsEventsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(30, [&] { order.push_back(3); });
  q.schedule_at(10, [&] { order.push_back(1); });
  q.schedule_at(20, [&] { order.push_back(2); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 30u);
}

TEST(EventQueue, TiesBreakInSchedulingOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 16; ++i) q.schedule_at(5, [&, i] { order.push_back(i); });
  q.run();
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, RelativeSchedulingUsesNow) {
  EventQueue q;
  Cycle seen = 0;
  q.schedule_at(100, [&] { q.schedule(5, [&] { seen = q.now(); }); });
  q.run();
  EXPECT_EQ(seen, 105u);
}

TEST(EventQueue, EventsMayScheduleMoreEvents) {
  EventQueue q;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 100) q.schedule(1, chain);
  };
  q.schedule(1, chain);
  q.run();
  EXPECT_EQ(count, 100);
  EXPECT_EQ(q.now(), 100u);
}

TEST(EventQueue, ExecutedCounts) {
  EventQueue q;
  for (int i = 0; i < 7; ++i) q.schedule_at(i, [] {});
  q.run();
  EXPECT_EQ(q.executed(), 7u);
}

TEST(EventQueue, ZeroDelayRunsSameCycleAfterCurrent) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(5, [&] {
    order.push_back(1);
    q.schedule(0, [&] { order.push_back(2); });
  });
  q.schedule_at(5, [&] { order.push_back(3); });
  q.run();
  // The zero-delay event lands at t=5 but behind the already-queued one.
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
}

/// A pooled producer in the style of the network's message pool: each
/// event names a slot holding its payload.
struct Pooled {
  ccsim::sim::Slab<int> slots;
  std::vector<int>* order = nullptr;

  void post(EventQueue& q, Cycle t, int value) {
    const std::uint32_t slot = slots.acquire();
    slots[slot] = value;
    q.schedule_thunk(t, &Pooled::fire, this, slot);
  }
  static void fire(void* self, std::uint64_t slot) {
    auto& p = *static_cast<Pooled*>(self);
    const auto i = static_cast<std::uint32_t>(slot);
    p.order->push_back(p.slots[i]);
    p.slots.release(i);
  }
};

ccsim::sim::Task resume_and_record(EventQueue& q, std::vector<int>& order, int tag) {
  co_await ccsim::sim::delay(q, 5);
  order.push_back(tag);
}

TEST(EventQueue, EveryProducerKindKeepsSchedulingOrder) {
  EventQueue q;
  std::vector<int> order;
  Pooled pooled;
  pooled.order = &order;
  // A coroutine suspends at t=0 and resumes at t=5; the other producers
  // schedule for t=5 around it. Ties break in scheduling order whatever
  // kind of event each one is.
  const std::string big = "slab-stored";  // forces the callback slab
  q.schedule_at(5, [&] { order.push_back(1); });       // in-record callback
  pooled.post(q, 5, 2);                                 // pooled delivery
  ccsim::sim::Task t = resume_and_record(q, order, 3);
  t.start();                                            // coroutine resume
  q.schedule_at(5, [&, big] { order.push_back(big.empty() ? -1 : 4); });
  pooled.post(q, 5, 5);
  q.schedule_at(5, [&] { order.push_back(6); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5, 6}));
  EXPECT_TRUE(t.done());
}

TEST(EventQueue, FreedCallbackSlotIsReusedWithoutReordering) {
  EventQueue q;
  std::vector<int> order;
  // std::function captures go to the callback slab.
  std::function<void(int)> rec = [&](int v) { order.push_back(v); };
  q.schedule_at(5, [rec] { rec(1); });
  q.schedule_at(5, [&, rec] {
    rec(2);
    // The first event's slot is free again and is reused here; the new
    // event still runs after everything already queued for t=5.
    q.schedule(0, [rec] { rec(4); });
  });
  q.schedule_at(5, [rec] { rec(3); });
  q.schedule_at(6, [rec] { rec(5); });
  const std::size_t slots = q.callback_slots();
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));

  // A long chain keeps one callback pending at a time: its slot is reused
  // every step and the slab never grows.
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 10000) q.schedule(1, chain);
  };
  q.schedule(1, chain);
  q.run();
  EXPECT_EQ(count, 10000);
  EXPECT_EQ(q.callback_slots(), slots);
}

TEST(EventQueue, CallbackMayGrowTheSlabWhileRunning) {
  EventQueue q;
  std::vector<int> order;
  std::function<void(int)> rec = [&](int v) { order.push_back(v); };
  // The running callable lives in a slab slot; scheduling more callbacks
  // than a chunk holds must not move it.
  q.schedule_at(1, [&q, rec] {
    for (int i = 0; i < 1000; ++i) q.schedule(1, [rec, i] { rec(i); });
    rec(-1);
  });
  q.run();
  ASSERT_EQ(order.size(), 1001u);
  EXPECT_EQ(order[0], -1);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(order[i + 1], i);
}

TEST(EventQueue, OversizedCallableIsBoxed) {
  EventQueue q;
  std::array<std::uint64_t, 16> big{};
  big[15] = 42;
  std::uint64_t seen = 0;
  static_assert(sizeof(big) > EventQueue::kInlineBytes);
  q.schedule_at(3, [&seen, big] { seen = big[15]; });
  q.run();
  EXPECT_EQ(seen, 42u);
  EXPECT_EQ(q.scheduled(), 1u);
}

} // namespace
