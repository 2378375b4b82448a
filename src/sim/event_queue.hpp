// Discrete-event simulation kernel.
//
// A single global event queue drives the whole machine: cache controllers,
// directories, memory banks and network interfaces all schedule closures.
// Events at equal timestamps execute in scheduling order (a monotonically
// increasing sequence number breaks ties), which makes every simulation run
// bit-for-bit deterministic -- an invariant the test suite checks.
#pragma once

#include "sim/types.hpp"

#include <cstddef>
#include <functional>
#include <queue>
#include <vector>

namespace ccsim::sim {

/// Priority queue of timed events plus the simulation clock.
class EventQueue {
public:
  using Action = std::function<void()>;

  /// Current simulation time. Only advances inside run()/step().
  [[nodiscard]] Cycle now() const noexcept { return now_; }

  /// Schedule `fn` to run at absolute time `t` (>= now()).
  void schedule_at(Cycle t, Action fn);

  /// Schedule `fn` to run `delay` cycles from now.
  void schedule(Cycle delay, Action fn) { schedule_at(now_ + delay, std::move(fn)); }

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

  /// Total number of events ever scheduled (== closure allocations; the
  /// host-telemetry layer reports it as an allocation stream).
  [[nodiscard]] std::uint64_t scheduled() const noexcept { return next_seq_; }

private:
  struct Event {
    Cycle t;
    std::uint64_t seq;
    Action fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const noexcept {
      return a.t > b.t || (a.t == b.t && a.seq > b.seq);
    }
  };

  Cycle now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::priority_queue<Event, std::vector<Event>, Later> heap_;
};

} // namespace ccsim::sim
