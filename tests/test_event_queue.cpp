// Unit tests for the discrete-event kernel.
#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

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

} // namespace
