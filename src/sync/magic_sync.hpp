// "Magic" synchronization: mutual exclusion and barrier semantics with no
// coherence traffic, used by the reduction experiments to isolate the
// reduction's own communication (paper, section 4.3: "we simulated locks
// and barriers that synchronize without generating any communication
// traffic").
//
// The lock still serializes critical sections, and the lock-manipulation
// INSTRUCTIONS still execute and cost time -- section 2.3's argument is
// that "due to the manipulation of the lock variable, the sum of P
// critical sections of the parallel reduction is much longer than the
// critical path of the sequential reduction" (measured from gcc -O2
// output). kAcquireCycles/kReleaseCycles model that instruction overhead;
// only the memory TRAFFIC is magically free.
#pragma once

#include "sync/sync.hpp"

#include <coroutine>
#include <deque>
#include <vector>

namespace ccsim::sync {

class MagicLock final : public Lock {
public:
  /// Instruction cost of the acquire / release code paths (section 2.3's
  /// gcc -O2 lock-manipulation overhead).
  static constexpr Cycle kAcquireCycles = 12;
  static constexpr Cycle kReleaseCycles = 8;

  explicit MagicLock(sim::EventQueue& q) : q_(q) {}

  sim::Task acquire(cpu::Cpu& c) override;
  sim::Task release(cpu::Cpu& c) override;

private:
  struct AcquireAwaiter {
    MagicLock& l;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      if (!l.held_) {
        l.held_ = true;
        l.q_.resume_after(1, h);
      } else {
        l.waiters_.push_back(h);
      }
    }
    void await_resume() const noexcept {}
  };

  sim::EventQueue& q_;
  bool held_ = false;
  std::deque<std::coroutine_handle<>> waiters_;
};

class MagicBarrier final : public Barrier {
public:
  /// Instruction cost of one barrier arrival (flag toggles and checks).
  static constexpr Cycle kArriveCycles = 6;

  MagicBarrier(sim::EventQueue& q, unsigned parties) : q_(q), parties_(parties) {}

  sim::Task wait(cpu::Cpu& c) override;

private:
  struct WaitAwaiter {
    MagicBarrier& b;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      b.waiters_.push_back(h);
      if (b.waiters_.size() == b.parties_) {
        auto ws = std::move(b.waiters_);
        b.waiters_.clear();
        for (auto w : ws) b.q_.resume_after(1, w);
      }
    }
    void await_resume() const noexcept {}
  };

  sim::EventQueue& q_;
  unsigned parties_;
  std::vector<std::coroutine_handle<>> waiters_;
};

} // namespace ccsim::sync
