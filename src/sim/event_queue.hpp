// Discrete-event simulation kernel.
//
// A single global event queue drives the whole machine: cache controllers,
// directories, memory banks and network interfaces all schedule events.
// Events at equal timestamps execute in scheduling order (a monotonically
// increasing sequence number breaks ties), which makes every simulation run
// bit-for-bit deterministic -- an invariant the test suite checks.
//
// Pending events live in a timing wheel of kSpan one-cycle buckets that
// covers the window [now, now + kSpan), plus an overflow heap for events
// scheduled further ahead. A bucket holds the events of exactly one cycle
// -- no two cycles of the window share an index -- as a FIFO list of nodes
// in one pooled array, so appending in scheduling order keeps the bucket
// in sequence order and memory follows the peak number of pending events.
// A two-level occupancy bitmap finds the next non-empty bucket with a few
// count-trailing-zeros steps, however sparse the wheel. kSpan covers the
// largest delay the simulated machine schedules (a multicast's
// ejection-port backlog at 32 processors, DESIGN.md section 6); the heap
// keeps any longer delay correct.
//
// Migration keeps the (t, seq) order exact. Whenever now advances, before
// the next event runs, every overflow event that the window now covers
// moves to the tail of its bucket, popped from the heap in (t, seq) order.
// An overflow event for cycle t was scheduled while t lay beyond the
// window, so it precedes in seq every event scheduled straight into t's
// bucket, which can only happen once t is inside the window -- that is,
// after the migration. Each bucket therefore stays in seq order.
//
// An event is one trivially copyable record: a plain function pointer
// applied to two words. There are three producers; once the node pool, the
// heap and the callback slab have grown to the run's peak, only an
// oversized callable allocates:
//   - resume_after(): a coroutine resume; the handle is the record's word;
//   - schedule_thunk(): a caller-owned thunk, used by producers that keep
//     their own pooled state (the network's in-flight messages, a home's
//     pending replies) and name a slot in the second word;
//   - schedule_at(<callable>): a callback. A trivially copyable callable of
//     up to two words (a lambda capturing `this` or a coroutine handle)
//     rides in the record itself; anything else up to kInlineBytes is
//     moved into a slot of the queue's callback slab. A larger callable is
//     boxed on the heap, the one path that allocates per event.
#pragma once

#include "sim/slab.hpp"
#include "sim/types.hpp"

#include <array>
#include <cassert>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <new>
#include <queue>
#include <type_traits>
#include <utility>
#include <vector>

namespace ccsim::sim {

/// Priority queue of timed events plus the simulation clock.
class EventQueue {
public:
  /// An event body: a plain function of the two words its producer stored.
  using Thunk = void (*)(void* obj, std::uint64_t arg);

  /// Callables up to this size are stored in the callback slab: `this`,
  /// one std::function and two more words fit.
  static constexpr std::size_t kInlineBytes = 64;

  /// Cycles the timing wheel covers: an event less than kSpan cycles ahead
  /// goes straight into its bucket, a later one into the overflow heap.
  static constexpr Cycle kSpan = Cycle{1} << 14;

  EventQueue();

  /// Current simulation time. Only advances inside run()/step().
  [[nodiscard]] Cycle now() const noexcept { return now_; }

  /// Schedule the callable `fn` (invoked as `fn()`) at absolute time `t`
  /// (>= now()).
  template <class F>
  void schedule_at(Cycle t, F&& fn);

  /// Schedule `fn` to run `delay` cycles from now.
  template <class F>
  void schedule(Cycle delay, F&& fn) {
    schedule_at(now_ + delay, std::forward<F>(fn));
  }

  /// Resume coroutine `h` `delay` cycles from now.
  void resume_after(Cycle delay, std::coroutine_handle<> h) {
    schedule_thunk(now_ + delay, &resume_thunk, h.address(), 0);
  }

  /// Run `thunk(obj, arg)` at absolute time `t` (>= now()). The caller owns
  /// whatever `obj` and `arg` name until the thunk runs.
  void schedule_thunk(Cycle t, Thunk thunk, void* obj, std::uint64_t arg) {
    assert(t >= now_ && "cannot schedule an event in the past");
    const std::uint64_t seq = next_seq_++;
    if (t < next_t_) next_t_ = t;
    if (t - now_ < kSpan)
      append(bucket_of(t), thunk, obj, arg);
    else
      overflow_.push(Event{t, seq, thunk, obj, arg});
  }

  /// Execute the earliest pending event. Returns false if the queue is empty.
  bool step();

  /// Run until no events remain.
  void run();

  [[nodiscard]] bool empty() const noexcept { return pending() == 0; }
  [[nodiscard]] std::size_t pending() const noexcept {
    return static_cast<std::size_t>(next_seq_ - executed_);
  }

  /// Timestamp of the earliest pending event, kept up to date by every
  /// schedule and step, so reading it costs one load. Precondition: !empty().
  [[nodiscard]] Cycle next_time() const noexcept { return next_t_; }

  /// Total number of events executed so far (for kernel micro-benchmarks).
  [[nodiscard]] std::uint64_t executed() const noexcept { return executed_; }

  /// Total number of events ever scheduled: executed() plus pending(), as
  /// the queue has no cancel operation.
  [[nodiscard]] std::uint64_t scheduled() const noexcept { return next_seq_; }

  /// Slots the callback slab has grown to (its peak occupancy, rounded up
  /// to a chunk).
  [[nodiscard]] std::size_t callback_slots() const noexcept {
    return callbacks_.capacity();
  }

private:
  /// An overflow heap record.
  struct Event {
    Cycle t;
    std::uint64_t seq;
    Thunk thunk;
    void* obj;
    std::uint64_t arg;
  };
  static_assert(std::is_trivially_copyable_v<Event>);
  struct Later {
    bool operator()(const Event& a, const Event& b) const noexcept {
      return a.t > b.t || (a.t == b.t && a.seq > b.seq);
    }
  };

  /// A wheel event: its bucket gives its time and its place in the
  /// bucket's list its sequence, so neither is stored. `next` links the
  /// bucket's ring, or the free list once the node is released.
  struct Node {
    Thunk thunk;
    void* obj;
    std::uint64_t arg;
    std::uint32_t next;
  };
  static_assert(std::is_trivially_copyable_v<Node>);

  static constexpr std::uint32_t kNil = ~std::uint32_t{0};
  static constexpr std::uint32_t kMask = static_cast<std::uint32_t>(kSpan - 1);
  static constexpr std::uint32_t kWords = static_cast<std::uint32_t>(kSpan / 64);
  static constexpr std::uint32_t kSummaryWords = (kWords + 63) / 64;
  static_assert((kSpan & (kSpan - 1)) == 0 && kSpan >= 64);

  static std::uint32_t bucket_of(Cycle t) noexcept {
    return static_cast<std::uint32_t>(t) & kMask;
  }

  /// Add an event at the tail of bucket `b`.
  void append(std::uint32_t b, Thunk thunk, void* obj, std::uint64_t arg) {
    std::uint32_t i = free_;
    if (i != kNil) {
      free_ = nodes_[i].next;
    } else {
      i = static_cast<std::uint32_t>(nodes_.size());
      nodes_.emplace_back();
    }
    Node& n = nodes_[i];
    n.thunk = thunk;
    n.obj = obj;
    n.arg = arg;
    std::uint64_t& word = occupied_[b / 64];
    const std::uint64_t bit = std::uint64_t{1} << (b % 64);
    if (word & bit) {
      Node& newest = nodes_[newest_[b]];
      n.next = newest.next;  // the oldest
      newest.next = i;
    } else {
      if (word == 0) summary_[b / 64 / 64] |= std::uint64_t{1} << (b / 64 % 64);
      word |= bit;
      n.next = i;
    }
    newest_[b] = i;
  }

  /// First occupied bucket at or after `b`, wrapping round the wheel.
  /// Precondition: some bucket is occupied.
  std::uint32_t next_bucket(std::uint32_t b) const noexcept;
  /// First word of occupied_ at or after `w` with a bit set, or kWords.
  std::uint32_t next_word(std::uint32_t w) const noexcept;
  /// Move every overflow event the window [now, now + kSpan) covers into
  /// its bucket, in (t, seq) order.
  void migrate();

  /// The two record words a small trivially copyable callable is copied
  /// into, byte for byte.
  struct Words {
    void* obj = nullptr;
    std::uint64_t arg = 0;
  };

  /// One callback slab slot: the callable's bytes and the function that
  /// invokes and then destroys it.
  struct Callback {
    alignas(std::max_align_t) std::byte storage[kInlineBytes];
    void (*run)(void* storage);
  };

  template <class F>
  static constexpr bool kInRecord =
      std::is_trivially_copyable_v<F> && std::is_trivially_destructible_v<F> &&
      sizeof(F) <= sizeof(Words) && alignof(F) <= alignof(Words);
  template <class F>
  static constexpr bool kInSlab = sizeof(F) <= kInlineBytes &&
                                  alignof(F) <= alignof(std::max_align_t) &&
                                  std::is_nothrow_move_constructible_v<F>;

  static void resume_thunk(void* h, std::uint64_t) {
    std::coroutine_handle<>::from_address(h).resume();
  }

  template <class F>
  static void record_thunk(void* obj, std::uint64_t arg) {
    const Words w{obj, arg};
    alignas(F) std::byte bytes[sizeof(F)];
    std::memcpy(bytes, &w, sizeof(F));
    (*std::launder(reinterpret_cast<F*>(bytes)))();
  }

  template <class F>
  static void run_stored(void* storage) {
    F& f = *std::launder(reinterpret_cast<F*>(storage));
    struct Destroy {
      F& f;
      ~Destroy() { f.~F(); }
    } destroy{f};
    f();
  }

  static void slab_thunk(void* q, std::uint64_t slot);

  Cycle now_ = 0;
  /// Time of the earliest pending event; the largest Cycle when empty.
  Cycle next_t_ = std::numeric_limits<Cycle>::max();
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  /// Each bucket is a ring of nodes: its entry here names the newest node,
  /// whose `next` is the oldest. An entry is read only while the bucket's
  /// occupancy bit is set, so the array is never cleared.
  std::unique_ptr<std::uint32_t[]> newest_;
  std::array<std::uint64_t, kWords> occupied_{};       ///< one bit per bucket
  std::array<std::uint64_t, kSummaryWords> summary_{}; ///< one bit per word
  std::vector<Node> nodes_;
  std::uint32_t free_ = kNil;  ///< head of the released nodes' list
  std::priority_queue<Event, std::vector<Event>, Later> overflow_;
  Slab<Callback> callbacks_;
};

template <class F>
void EventQueue::schedule_at(Cycle t, F&& fn) {
  using Fn = std::decay_t<F>;
  if constexpr (kInRecord<Fn>) {
    Words w;
    std::memcpy(static_cast<void*>(&w), static_cast<const void*>(&fn), sizeof(Fn));
    schedule_thunk(t, &record_thunk<Fn>, w.obj, w.arg);
  } else if constexpr (kInSlab<Fn>) {
    const std::uint32_t slot = callbacks_.acquire();
    Callback& c = callbacks_[slot];
    ::new (static_cast<void*>(c.storage)) Fn(std::forward<F>(fn));
    c.run = &run_stored<Fn>;
    schedule_thunk(t, &slab_thunk, this, slot);
  } else {
    schedule_at(t, [box = std::make_unique<Fn>(std::forward<F>(fn))] { (*box)(); });
  }
}

} // namespace ccsim::sim
