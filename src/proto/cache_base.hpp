// Machinery shared by the WI and update-based cache controllers:
// private (non-coherent) memory, write-buffer acceptance and drain
// scheduling, fence bookkeeping, the load path, block transactions (MSHRs)
// from open to completion, line install and eviction, and flushes. The
// protocols add only their state machines: how a store drains, how an
// atomic executes, and what each incoming message does.
#pragma once

#include "obs/observer.hpp"
#include "proto/protocol.hpp"

#include <cassert>
#include <functional>
#include <unordered_map>
#include <vector>

namespace ccsim::proto {

class BaseCacheController : public CacheController {
public:
  using CacheController::CacheController;

  void cpu_load(Addr a, std::size_t size, LoadCallback done) override;
  void cpu_store(Addr a, std::size_t size, std::uint64_t v, DoneCallback done) override;
  void cpu_fence(DoneCallback done) override;
  /// Waits for program-order-earlier stores to the block to be performed
  /// (a queued store would otherwise re-fetch the block right after the
  /// flush dropped it), then evicts the line.
  void cpu_flush(Addr a, DoneCallback done) override;

  [[nodiscard]] CacheDebug debug_state() const override {
    return {wb_.size(), mshr_count(), pending_acks_, outstanding_};
  }

protected:
  struct LoadWaiter {
    Addr addr;
    std::size_t size;
    LoadCallback done;
  };
  /// One outstanding block transaction (an MSHR): the request in flight
  /// and everything waiting for its reply.
  struct Txn {
    bool inval_on_fill = false;  ///< an Inval overtook the fill (WI)
    Addr inval_trigger = 0;
    std::vector<LoadWaiter> loads;
    std::vector<std::function<void()>> retries;  ///< drains / atomic resumes
  };

  /// Outstanding block transactions, for watchdog diagnostics.
  [[nodiscard]] virtual std::size_t mshr_count() const { return txns_.size(); }

  // --- hooks the concrete protocols implement ------------------------

  /// Process the (shared) store at the head of the write buffer. Must
  /// eventually call entry_done().
  virtual void drain_head() = 0;

  /// A load or store hit line `l`; protocol-specific reaction (e.g. the
  /// competitive-update counter resets on local references).
  virtual void on_cache_hit(mem::CacheLine& l, Addr a) { (void)l, (void)a; }

  // --- services for subclasses ----------------------------------------

  void send(net::Message m) {
    m.src = id_;
    ctx_.net.send(m);
  }

  /// Queue `w` (or `retry`) on block `b`'s outstanding transaction, opening
  /// one if there is none. Returns true if this call opened it: the caller
  /// then sends the request the transaction waits for.
  bool join_txn(mem::BlockAddr b, LoadWaiter w);
  bool join_txn(mem::BlockAddr b, std::function<void()> retry);

  /// Miss on `a`'s block: classify it and request a shared copy (GetS).
  void fetch_shared(Addr a);

  /// The reply to block `b`'s transaction arrived: close it, complete its
  /// waiting loads, resume its retries, and apply an invalidation that
  /// overtook the fill.
  void complete_txn(mem::BlockAddr b);

  /// A fill may not evict a line with its own transaction outstanding (an
  /// Upgrade's grant would arrive for a line we no longer hold): the MSHR
  /// conflict stalls the fill until the victim's transaction completes.
  /// Returns true if `fill` was parked; it re-enters on_message then.
  bool park_fill(const net::Message& fill);

  /// Install block `b` in state `state`, evicting the line's previous block.
  void install(mem::BlockAddr b, const std::array<std::byte, mem::kBlockSize>& data,
               mem::LineState state);

  /// Drop `line` from the cache: a Writeback if it is dirty (Modified or
  /// PrivateDirty), else a ReplHint, so the home's full map stays exact.
  virtual void evict_line(mem::CacheLine& line);

  /// Invalidate `l` on a coherence action triggered by a write to `trigger`.
  void invalidate_line(mem::CacheLine& l, Addr trigger);

  /// Complete a load one hit-latency from now, reading the line at
  /// completion time. A change (update/invalidation) landing between now
  /// and then has already fired its change notification, so delivering a
  /// value captured NOW would let a spinner sleep through its wakeup.
  /// If the line is gone by then, the load retries from scratch.
  void complete_load_later(Addr a, std::size_t size, LoadCallback done) {
    ctx_.q.schedule(kHitCycles, [this, a, size, done = std::move(done)]() mutable {
      if (cache_.find(mem::block_of(a))) {
        if (ctx_.observer) ctx_.observer->on_read(id_, a, word_at(a));
        done(cache_.read(a, size));
      } else {
        --ctx_.counters.mem.shared_reads;  // recounted by the retry
        cpu_load(a, size, std::move(done));
      }
    });
  }

  /// The full word containing `a` as this cache holds it (observer hooks).
  [[nodiscard]] std::uint64_t word_at(Addr a) const {
    return cache_.read(a - a % mem::kWordSize, mem::kWordSize);
  }

  /// The head write-buffer entry retired: pop it, admit a stalled store,
  /// and keep draining.
  void entry_done();

  /// Start the drain loop if it is not already running.
  void kick_drain();

  /// Re-evaluate pending fences; call after any counter decreases.
  void check_fences();

  [[nodiscard]] bool fence_clear() const noexcept {
    return wb_.empty() && pending_acks_ == 0 && outstanding_ == 0;
  }

  std::uint64_t read_private(Addr a) const {
    auto it = private_mem_.find(a);
    return it == private_mem_.end() ? 0 : it->second;
  }

  /// Latency of a cache hit / of accepting a store (1 cycle, section 3.1).
  static constexpr Cycle kHitCycles = 1;
  /// Extra cycles for the read-modify-write of a cache-side atomic.
  static constexpr Cycle kAtomicCycles = 2;

  /// Blocks with a Writeback of ours still unacknowledged by the home.
  /// Used to disambiguate forward races: a forward arriving for a block we
  /// just wrote back must be FwdNack'ed (the home replays off the
  /// writeback), never deferred.
  void note_writeback_sent(mem::BlockAddr b) { ++wb_pending_[b]; }
  void note_writeback_acked(mem::BlockAddr b) {
    auto it = wb_pending_.find(b);
    if (it != wb_pending_.end() && --it->second == 0) wb_pending_.erase(it);
  }
  [[nodiscard]] bool writeback_in_flight(mem::BlockAddr b) const {
    return wb_pending_.contains(b);
  }

  std::unordered_map<Addr, std::uint64_t> private_mem_;
  std::unordered_map<mem::BlockAddr, int> wb_pending_;
  std::unordered_map<mem::BlockAddr, Txn> txns_;

  /// Coherence acknowledgements still owed to this node's earlier writes.
  /// May transiently go negative when an ack overtakes the message that
  /// announces it.
  std::int64_t pending_acks_ = 0;
  /// Transactions whose ack count has not been announced yet (WI exclusive
  /// requests in flight, update grants in flight).
  int outstanding_ = 0;

private:
  struct StalledStore {
    mem::WriteBufferEntry entry;
    DoneCallback done;
    Cycle since;
  };

  bool draining_ = false;
  std::vector<DoneCallback> fence_waiters_;
  std::vector<StalledStore> store_stalls_;
};

} // namespace ccsim::proto
