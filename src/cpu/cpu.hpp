// Processor-facing memory API.
//
// Simulated programs are C++20 coroutines; every shared-memory operation is
// a co_await on one of these awaitables, resolved by the node's cache
// controller with full protocol timing. Instruction costs follow the paper:
// ordinary instructions and read hits take 1 cycle; `think(n)` charges n
// cycles of local computation.
//
// spin_until() is the simulator's spin-loop primitive: it polls the
// location and, while the cached value leaves the predicate unsatisfied,
// sleeps until the cache line changes (fill, update, invalidation) instead
// of burning simulated events -- timing-equivalent to a polling loop, since
// a cached poll can only observe a change when the line changes.
#pragma once

#include "mem/address.hpp"
#include "obs/cycle_accounting.hpp"
#include "proto/cache_controller.hpp"
#include "sim/event_queue.hpp"
#include "sim/task.hpp"

#include <coroutine>
#include <cstdint>
#include <functional>
#include <memory>

namespace ccsim::cpu {

class Cpu {
public:
  Cpu(NodeId id, sim::EventQueue& q, proto::CacheController& cc)
      : id_(id), q_(q), cc_(cc) {}

  [[nodiscard]] NodeId id() const noexcept { return id_; }
  [[nodiscard]] sim::EventQueue& queue() noexcept { return q_; }
  [[nodiscard]] proto::CacheController& controller() noexcept { return cc_; }

  /// Attach the cycle-accounting ledger (nullptr = profiling off). Every
  /// awaitable below then opens a span at issue and resolves its category
  /// at completion; spans that finish at the uncontended cost inherit the
  /// enclosing scope so hits never masquerade as stalls.
  void set_ledger(obs::CycleLedger* l) noexcept { ledger_ = l; }
  [[nodiscard]] obs::CycleLedger* ledger() const noexcept { return ledger_; }

  /// Attach a shared forward-progress counter (the machine watchdog's).
  /// Every completed memory operation bumps it; a processor that only
  /// thinks between operations does not, so the watchdog stall bound must
  /// exceed the longest think in the workload.
  void set_progress(std::uint64_t* p) noexcept { progress_ = p; }

  /// Uncontended completion costs (paper section 3.1): at or below these,
  /// a span is not a stall. Loads/stores: the 1-cycle hit / buffer-accept;
  /// atomics: hit + read-modify-write when the line is held locally.
  static constexpr Cycle kHitLatency = 1;
  static constexpr Cycle kLocalAtomicLatency = 3;

  // --- awaitables -----------------------------------------------------

  struct LoadAwaiter {
    Cpu& cpu;
    Addr addr;
    std::size_t size;
    std::uint64_t result = 0;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      if (auto* l = cpu.ledger_) l->begin_load(cpu.id_, addr);
      cpu.cc_.cpu_load(addr, size, [this, h](std::uint64_t v) {
        if (auto* l = cpu.ledger_) l->end_load(cpu.id_, kHitLatency);
        result = v;
        cpu.bump_progress();
        h.resume();
      });
    }
    std::uint64_t await_resume() const noexcept { return result; }
  };

  struct StoreAwaiter {
    Cpu& cpu;
    Addr addr;
    std::size_t size;
    std::uint64_t value;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      if (auto* l = cpu.ledger_) l->begin(cpu.id_, obs::CycleCat::WbFull);
      cpu.cc_.cpu_store(addr, size, value, [this, h] {
        if (auto* l = cpu.ledger_) l->end_fast(cpu.id_, kHitLatency);
        cpu.bump_progress();
        h.resume();
      });
    }
    void await_resume() const noexcept {}
  };

  struct AtomicAwaiter {
    Cpu& cpu;
    net::AtomicOp op;
    Addr addr;
    std::uint64_t v1, v2;
    std::uint64_t result = 0;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      if (auto* l = cpu.ledger_) l->begin(cpu.id_, obs::CycleCat::NetQueue);
      cpu.cc_.cpu_atomic(op, addr, v1, v2, [this, h](std::uint64_t v) {
        if (auto* l = cpu.ledger_) l->end_fast(cpu.id_, kLocalAtomicLatency);
        result = v;
        cpu.bump_progress();
        h.resume();
      });
    }
    std::uint64_t await_resume() const noexcept { return result; }
  };

  struct FenceAwaiter {
    Cpu& cpu;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      if (auto* l = cpu.ledger_) l->begin(cpu.id_, obs::CycleCat::ReleaseAck);
      cpu.cc_.cpu_fence([this, h] {
        if (auto* l = cpu.ledger_) l->end_fast(cpu.id_, 0);
        cpu.bump_progress();
        h.resume();
      });
    }
    void await_resume() const noexcept {}
  };

  struct FlushAwaiter {
    Cpu& cpu;
    Addr addr;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      if (auto* l = cpu.ledger_) l->begin(cpu.id_, obs::CycleCat::ReleaseAck);
      cpu.cc_.cpu_flush(addr, [this, h] {
        if (auto* l = cpu.ledger_) l->end_fast(cpu.id_, kHitLatency);
        cpu.bump_progress();
        h.resume();
      });
    }
    void await_resume() const noexcept {}
  };

  /// Spin until pred(value-at-addr) holds; resolves to the final value.
  struct SpinAwaiter {
    Cpu& cpu;
    Addr addr;
    std::size_t size;
    std::function<bool(std::uint64_t)> pred;
    std::uint64_t result = 0;
    std::coroutine_handle<> h_;

    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      h_ = h;
      poll();
    }
    std::uint64_t await_resume() const noexcept { return result; }

    void poll() {
      if (auto* l = cpu.ledger_) l->begin_load(cpu.id_, addr);
      cpu.cc_.cpu_load(addr, size, [this](std::uint64_t v) {
        if (auto* l = cpu.ledger_) l->end_load(cpu.id_, kHitLatency);
        if (pred(v)) {
          // Progress counts only the satisfied poll: an unsatisfied spin --
          // even one re-polling on the uncached-retry path -- must look
          // stalled to the watchdog, or lost wakeups go undetected.
          result = v;
          cpu.bump_progress();
          h_.resume();
          return;
        }
        const mem::BlockAddr b = mem::block_of(addr);
        mem::DataCache& cache = cpu.cc_.cache();
        if (cache.find(b)) {
          // Line cached: sleep until it changes, then re-poll (1 cycle of
          // loop overhead models the compare-and-branch).
          cache.watch(b, [this] { cpu.q_.schedule(1, [this] { poll(); }); });
        } else {
          // Not cached (e.g. mid-transaction churn): retry shortly.
          cpu.q_.schedule(2, [this] { poll(); });
        }
      });
    }
  };

  [[nodiscard]] LoadAwaiter load(Addr a, std::size_t size = mem::kWordSize) {
    return {*this, a, size};
  }
  [[nodiscard]] StoreAwaiter store(Addr a, std::uint64_t v,
                                   std::size_t size = mem::kWordSize) {
    return {*this, a, size, v};
  }
  [[nodiscard]] AtomicAwaiter fetch_add(Addr a, std::uint64_t delta) {
    return {*this, net::AtomicOp::FetchAdd, a, delta, 0};
  }
  [[nodiscard]] AtomicAwaiter fetch_store(Addr a, std::uint64_t v) {
    return {*this, net::AtomicOp::FetchStore, a, v, 0};
  }
  [[nodiscard]] AtomicAwaiter compare_swap(Addr a, std::uint64_t expected,
                                           std::uint64_t desired) {
    return {*this, net::AtomicOp::CompareSwap, a, expected, desired};
  }
  /// Release fence: all prior writes globally performed before continuing.
  [[nodiscard]] FenceAwaiter fence() { return {*this}; }
  /// User-level block flush of the block containing `a`.
  [[nodiscard]] FlushAwaiter flush(Addr a) { return {*this, a}; }
  /// Local computation for `n` cycles.
  [[nodiscard]] sim::DelayAwaiter think(Cycle n) { return sim::delay(q_, n); }
  [[nodiscard]] SpinAwaiter spin_until(Addr a, std::function<bool(std::uint64_t)> pred,
                                       std::size_t size = mem::kWordSize) {
    return {*this, a, size, std::move(pred), 0, {}};
  }

  /// Release store: fence, then store (used by lock releases).
  sim::Task store_release(Addr a, std::uint64_t v, std::size_t size = mem::kWordSize);

private:
  void bump_progress() noexcept {
    if (progress_) ++*progress_;
  }

  NodeId id_;
  sim::EventQueue& q_;
  proto::CacheController& cc_;
  obs::CycleLedger* ledger_ = nullptr;
  std::uint64_t* progress_ = nullptr;
};

} // namespace ccsim::cpu
