// Discrete-event simulation kernel.
//
// A single global event queue drives the whole machine: cache controllers,
// directories, memory banks and network interfaces all schedule events.
// Events at equal timestamps execute in scheduling order (a monotonically
// increasing sequence number breaks ties), which makes every simulation run
// bit-for-bit deterministic -- an invariant the test suite checks.
//
// The queue holds one trivially copyable record per event: its time, its
// sequence number, and a plain function pointer applied to two words.
// There are three producers; once their pools have grown to the run's peak,
// only an oversized callable allocates:
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

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <cstring>
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
  void schedule_thunk(Cycle t, Thunk thunk, void* obj, std::uint64_t arg);

  /// Execute the earliest pending event. Returns false if the queue is empty.
  bool step();

  /// Run until no events remain.
  void run();

  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::size_t pending() const noexcept { return heap_.size(); }

  /// Timestamp of the earliest pending event. Precondition: !empty().
  [[nodiscard]] Cycle next_time() const noexcept { return heap_.top().t; }

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
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::priority_queue<Event, std::vector<Event>, Later> heap_;
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
