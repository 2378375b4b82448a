// Processor-side controller of one node: one direct-mapped cache, one
// write buffer and the coherence engine behind them.
//
// Completion callbacks fire when the operation completes from the
// processor's point of view (loads: data available; stores: accepted by
// the write buffer; atomics: old value returned; fences: all prior writes
// globally performed).
//
// What every protocol does alike lives here once: private (non-coherent)
// memory, write-buffer acceptance and drain scheduling, fences over the
// one write buffer and ack counters, the load path, block transactions
// (MSHRs) from open to completion, line install and eviction, and flushes.
// The protocol state machines -- how a store drains, how an atomic
// executes, what each incoming message does -- are chosen per block from
// ProtocolContext::mode_of at three entry points: cpu_atomic, the
// head-of-buffer drain and on_message. An eviction sends the same
// Writeback or ReplHint in every mode; the home picks its handler. The WI
// handlers live in wi_cache.cpp, the update (PU/CU) handlers in
// update_cache.cpp. PU and CU differ only by the mode: CU drops a copy
// after ctx.cu_threshold unreferenced updates; PU never drops.
//
// The write buffer drains one lane per mode: a store retires in program
// order behind the earlier stores of its own mode only, so on a Hybrid
// machine a PU store never waits for a CU store's write-allocate fetch.
// Release consistency orders stores of different modes only at fences; a
// pure machine has one lane and drains in FIFO order.
#pragma once

#include "mem/cache.hpp"
#include "mem/write_buffer.hpp"
#include "proto/protocol.hpp"

#include <array>
#include <functional>
#include <unordered_map>
#include <vector>

namespace ccsim::proto {

class CacheController {
public:
  using LoadCallback = std::function<void(std::uint64_t)>;
  using DoneCallback = std::function<void()>;

  CacheController(NodeId id, ProtocolContext& ctx, std::size_t cache_bytes,
                  std::size_t wb_entries)
      : id_(id), ctx_(ctx), cache_(cache_bytes), wb_(wb_entries) {}
  CacheController(const CacheController&) = delete;
  CacheController& operator=(const CacheController&) = delete;

  void cpu_load(Addr a, std::size_t size, LoadCallback done);
  void cpu_store(Addr a, std::size_t size, std::uint64_t v, DoneCallback done);
  void cpu_atomic(net::AtomicOp op, Addr a, std::uint64_t v1, std::uint64_t v2,
                  LoadCallback done);
  /// Release fence: wait for the write buffer to drain and all coherence
  /// acknowledgements of prior writes -- to blocks of every mode -- to
  /// arrive.
  void cpu_fence(DoneCallback done);
  /// User-level block flush (PowerPC-604 style): drop `block_of(a)` from
  /// this cache, writing it back if dirty. Waits for program-order-earlier
  /// stores to the block to be performed (a queued store would otherwise
  /// re-fetch the block right after the flush dropped it).
  void cpu_flush(Addr a, DoneCallback done);

  void on_message(const net::Message& msg);

  [[nodiscard]] NodeId id() const noexcept { return id_; }
  [[nodiscard]] mem::DataCache& cache() noexcept { return cache_; }
  [[nodiscard]] const mem::WriteBuffer& write_buffer() const noexcept { return wb_; }

  /// Queue occupancy snapshot for watchdog/deadlock diagnostics.
  [[nodiscard]] CacheDebug debug_state() const {
    return {wb_.size(), txns_.size() + (atomic_.active ? 1 : 0), pending_acks_,
            outstanding_};
  }

private:
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
  /// The update protocols' atomic in flight at the home (at most one: the
  /// processor waits for its reply).
  struct PendingAtomic {
    net::AtomicOp op{};
    Addr addr = 0;
    std::uint64_t v1 = 0, v2 = 0;
    LoadCallback done;
    bool active = false;
    /// The reply may install the block -- unless our copy was dropped,
    /// evicted or flushed while the request was in flight (a Prune or
    /// ReplHint sent after the AtomicReq has already revoked the
    /// sharer-ship the reply's fill would claim).
    bool fill_ok = true;
  };
  struct StalledStore {
    mem::WriteBufferEntry entry;
    DoneCallback done;
    Cycle since;
  };

  // --- shared machinery (cache_controller.cpp) -------------------------

  void send(net::Message m) {
    m.src = id_;
    ctx_.net.send(m);
  }

  /// Process the oldest store of drain lane `lane` (a mode), by its
  /// block's mode. Eventually calls entry_done(lane).
  void drain_head(std::uint8_t lane);

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

  /// Drop `line` from the cache, whatever its block's mode: a Writeback if
  /// it is dirty (Modified or PrivateDirty), else a ReplHint, so the home's
  /// full map stays exact. An update atomic in flight on the block may then
  /// no longer install its reply.
  void evict_line(mem::CacheLine& line);

  /// Invalidate `l` on a coherence action triggered by a write to `trigger`.
  void invalidate_line(mem::CacheLine& l, Addr trigger);

  /// Complete a load one hit-latency from now, reading the line at
  /// completion time. A change (update/invalidation) landing between now
  /// and then has already fired its change notification, so delivering a
  /// value captured NOW would let a spinner sleep through its wakeup.
  /// If the line is gone by then, the load retries from scratch.
  void complete_load_later(Addr a, std::size_t size, LoadCallback done);

  /// The full word containing `a` as this cache holds it (observer hooks).
  [[nodiscard]] std::uint64_t word_at(Addr a) const {
    return cache_.read(a - a % mem::kWordSize, mem::kWordSize);
  }

  /// The oldest entry of `lane` retired: pop it, admit a stalled store,
  /// and keep draining the lane.
  void entry_done(std::uint8_t lane);

  /// Start `lane`'s drain loop if it is not already running.
  void kick_drain(std::uint8_t lane);

  /// Re-evaluate pending fences; call after any counter decreases.
  void check_fences();

  [[nodiscard]] bool fence_clear() const noexcept {
    return wb_.empty() && pending_acks_ == 0 && outstanding_ == 0;
  }

  std::uint64_t read_private(Addr a) const {
    auto it = private_mem_.find(a);
    return it == private_mem_.end() ? 0 : it->second;
  }

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

  // --- write invalidate (wi_cache.cpp) ----------------------------------

  void wi_drain(const mem::WriteBufferEntry& e);
  void wi_atomic(net::AtomicOp op, Addr a, std::uint64_t v1, std::uint64_t v2,
                 LoadCallback done);
  void wi_on_message(const net::Message& msg);
  void request_exclusive(Addr a, const mem::CacheLine* line, std::function<void()> retry);
  void grant_exclusive(mem::BlockAddr b, std::uint64_t acks);
  void perform_store(const mem::WriteBufferEntry& e);
  void do_atomic_local(net::AtomicOp op, Addr a, std::uint64_t v1, std::uint64_t v2,
                       LoadCallback done);
  void wi_atomic_resume(net::AtomicOp op, Addr a, std::uint64_t v1, std::uint64_t v2,
                        LoadCallback done);

  // --- pure / competitive update (update_cache.cpp) ---------------------

  void update_drain(const mem::WriteBufferEntry& e);
  void update_atomic(net::AtomicOp op, Addr a, std::uint64_t v1, std::uint64_t v2,
                     LoadCallback done);
  void update_on_message(const net::Message& msg);
  void apply_update(const net::Message& msg);

  /// Latency of a cache hit / of accepting a store (1 cycle, section 3.1).
  static constexpr Cycle kHitCycles = 1;
  /// Extra cycles for the read-modify-write of a cache-side atomic.
  static constexpr Cycle kAtomicCycles = 2;

  NodeId id_;
  ProtocolContext& ctx_;
  mem::DataCache cache_;
  mem::WriteBuffer wb_;

  std::unordered_map<Addr, std::uint64_t> private_mem_;
  std::unordered_map<mem::BlockAddr, int> wb_pending_;
  std::unordered_map<mem::BlockAddr, Txn> txns_;
  PendingAtomic atomic_;

  /// Coherence acknowledgements still owed to this node's earlier writes.
  /// May transiently go negative when an ack overtakes the message that
  /// announces it.
  std::int64_t pending_acks_ = 0;
  /// Transactions whose ack count has not been announced yet (WI exclusive
  /// requests in flight, update grants in flight).
  int outstanding_ = 0;

  /// One drain loop per lane; a lane is a mode (Protocol::WI/PU/CU).
  std::array<bool, 3> draining_{};
  std::vector<DoneCallback> fence_waiters_;
  std::vector<StalledStore> store_stalls_;
};

} // namespace ccsim::proto
