// Unit tests for the discrete-event kernel.
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "sim/slab.hpp"
#include "sim/task.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <set>
#include <string>
#include <utility>
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

/// Differential check against a reference (t, seq) sort. Seeded random
/// schedules from every producer kind, outside and inside running events,
/// keep a population of pending events alive: zero delays and same-cycle
/// ties, delays on either side of the wheel's span, far events whose cycle
/// later receives near events once the window reaches it, and enough
/// simulated time for the bucket index to wrap many times. Before every
/// step the queue's counters and next_time() must match the reference set
/// of pending events, and every event must run exactly when and in the
/// order the reference says.
class Differential {
public:
  Differential(std::uint64_t seed, std::size_t population, std::size_t budget)
      : rng_(seed), population_(population), budget_(budget) {}

  void run() {
    for (std::size_t i = 0; i < population_; ++i) schedule_one();
    std::vector<ccsim::sim::Task> sleepers;
    for (int i = 0; i < 4; ++i) {
      sleepers.push_back(sleeper());
      sleepers.back().start();
    }
    while (!q_.empty()) {
      ASSERT_EQ(q_.pending(), pending_.size());
      ASSERT_EQ(q_.scheduled(), times_.size());
      ASSERT_EQ(q_.executed(), fired_.size());
      ASSERT_EQ(q_.scheduled(), q_.executed() + q_.pending());
      ASSERT_EQ(q_.next_time(), pending_.begin()->first);
      const std::uint64_t expect = pending_.begin()->second;
      ASSERT_TRUE(q_.step());
      ASSERT_FALSE(fired_.empty());
      ASSERT_EQ(fired_[q_.executed() - 1], expect);
      ASSERT_EQ(q_.now(), times_[expect]);
    }
    EXPECT_FALSE(q_.step());
    EXPECT_TRUE(pending_.empty());
    EXPECT_EQ(q_.pending(), 0u);
    for (const ccsim::sim::Task& t : sleepers) EXPECT_TRUE(t.done());

    // The whole run against one sort of every scheduled event by (t, seq).
    std::vector<std::uint64_t> reference(times_.size());
    for (std::uint64_t seq = 0; seq < reference.size(); ++seq) reference[seq] = seq;
    std::stable_sort(reference.begin(), reference.end(),
                     [&](std::uint64_t a, std::uint64_t b) { return times_[a] < times_[b]; });
    EXPECT_EQ(fired_, reference);
    EXPECT_GT(q_.now(), 8 * EventQueue::kSpan);  // the wheel wrapped
  }

  std::size_t migrated_ties() const { return migrated_ties_; }

private:
  /// Record the event about to take sequence number q_.scheduled().
  std::uint64_t admit(Cycle t) {
    const std::uint64_t seq = q_.scheduled();
    times_.push_back(t);
    pending_.emplace(t, seq);
    if (far_cycles_.count(t) != 0 && t - q_.now() < EventQueue::kSpan) ++migrated_ties_;
    return seq;
  }

  /// The event `seq` runs: it must be the reference's earliest.
  void fire(std::uint64_t seq) {
    fired_.push_back(seq);
    pending_.erase({times_[seq], seq});
    // Keep the population near its target until the budget runs out.
    const std::size_t children = pending_.size() < population_ ? 2 : rng_.below(2);
    for (std::size_t i = 0; i < children; ++i) schedule_one();
  }

  Cycle pick_time() {
    const Cycle now = q_.now();
    const Cycle span = EventQueue::kSpan;
    switch (rng_.below(10)) {
      case 0: return now;                                    // same-cycle tie
      case 1:
      case 2: return now + rng_.below(64);                   // near
      case 3: return now + span - 2 + rng_.below(5);         // at the span's edge
      case 4: return remember(now + span + rng_.below(3 * span));  // overflow
      case 5:
      case 6: {  // a cycle some far event was scheduled for
        if (far_.empty()) return now + rng_.below(64);
        const Cycle t = far_[rng_.below(far_.size())];
        return t >= now ? t : now + rng_.below(64);
      }
      case 7: return now + rng_.below(span);                 // anywhere in the window
      case 8: return remember(now + 40 * span + rng_.below(span));  // very far
      default: return now + 1;
    }
  }

  Cycle remember(Cycle t) {
    if (far_.size() < 64) far_.push_back(t);
    else far_[rng_.below(far_.size())] = t;
    far_cycles_.insert(t);
    return t;
  }

  static void thunk(void* self, std::uint64_t seq) {
    static_cast<Differential*>(self)->fire(seq);
  }

  /// One event from a randomly chosen callback producer.
  void schedule_one() {
    if (times_.size() >= budget_) return;
    const Cycle t = pick_time();
    const std::uint64_t seq = admit(t);
    switch (rng_.below(4)) {
      case 0: q_.schedule_at(t, [this, seq] { fire(seq); }); break;  // in the record
      case 1: {  // in a slab slot
        const std::array<std::uint64_t, 4> pad{seq, seq, seq, seq};
        q_.schedule_at(t, [this, pad] { fire(pad[3]); });
        break;
      }
      case 2: {  // boxed
        std::array<std::uint64_t, 12> big{};
        big[11] = seq;
        q_.schedule_at(t, [this, big] { fire(big[11]); });
        break;
      }
      default: q_.schedule_thunk(t, &Differential::thunk, this, seq); break;
    }
  }

  /// resume_after() with any delay, zero included (sim::delay(q, 0) would
  /// not suspend).
  struct Sleep {
    EventQueue& q;
    Cycle d;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) const { q.resume_after(d, h); }
    void await_resume() const noexcept {}
  };

  /// A coroutine producer: sleeps, fires, and sleeps again while the
  /// budget lasts.
  ccsim::sim::Task sleeper() {
    while (times_.size() < budget_) {
      const Cycle t = pick_time();
      const std::uint64_t seq = admit(t);
      co_await Sleep{q_, t - q_.now()};
      fire(seq);
    }
  }

  EventQueue q_;
  ccsim::sim::Rng rng_;
  std::size_t population_;
  std::size_t budget_;
  std::vector<Cycle> times_;                              ///< by seq
  std::set<std::pair<Cycle, std::uint64_t>> pending_;    ///< (t, seq)
  std::vector<std::uint64_t> fired_;                      ///< seqs in run order
  std::vector<Cycle> far_;
  std::set<Cycle> far_cycles_;
  std::size_t migrated_ties_ = 0;
};

TEST(EventQueue, MatchesReferenceOrderOnRandomSchedules) {
  // Populations from a sparse queue to update_storm's depth.
  std::size_t migrated_ties = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    for (std::size_t population : {1u, 17u, 600u}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " population " +
                   std::to_string(population));
      Differential d(seed, population, 30'000);
      d.run();
      if (HasFatalFailure()) return;
      migrated_ties += d.migrated_ties();
    }
  }
  // Near events did land in cycles that far events were waiting for.
  EXPECT_GT(migrated_ties, 0u);
}

TEST(EventQueue, AnyDelayRunsThroughTheOverflowHeap) {
  EventQueue q;
  std::vector<Cycle> seen;
  const Cycle huge = ~Cycle{0} - 3;
  q.schedule_at(huge, [&] { seen.push_back(q.now()); });
  q.schedule_at(1ull << 40, [&] {
    seen.push_back(q.now());
    q.schedule(2, [&] { seen.push_back(q.now()); });
  });
  q.schedule_at(3, [&] { seen.push_back(q.now()); });
  EXPECT_EQ(q.next_time(), 3u);
  q.run();
  EXPECT_EQ(seen, (std::vector<Cycle>{3, 1ull << 40, (1ull << 40) + 2, huge}));
}

} // namespace
