// Update-based cache side, PU and CU (paper section 3.1).
//
// Writes write through the cache to the home; the home multicasts updates
// to the other sharers and tells the writer how many acknowledgements to
// expect; sharers ack the writer directly; the writer stalls for acks only
// at release fences. Writes ALLOCATE: a write miss first fetches the
// block, so writers keep caching what they write -- this is what makes
// MCS-lock writers accumulate copies of other processors' qnodes and
// receive an update for each modification of them (paper section 4.1),
// and what the update-conscious flushes undo. Under PU a copy the home
// makes private (PrivateDirty) retains its writes locally until recalled.
// Under CU each copy counts updates received since its last local
// reference and self-invalidates at ctx.cu_threshold, sending the home a
// Prune so no further updates are sent. Atomics execute at the home.
#include "proto/cache_controller.hpp"

#include "obs/observer.hpp"
#include "sim/check.hpp"

#include <string>

namespace ccsim::proto {

using net::Message;
using net::MsgType;

// ---------------------------------------------------------------------
// stores: write through to the home, write-allocate on a miss
// ---------------------------------------------------------------------

void CacheController::update_drain(const mem::WriteBufferEntry& e) {
  const mem::BlockAddr b = mem::block_of(e.addr);
  mem::CacheLine* line = cache_.find(b);

  if (line && line->state == mem::LineState::PrivateDirty) {
    // Retained-update mode: the home asked us to keep updates local.
    ++ctx_.counters.mem.write_hits;
    cache_.write(e.addr, e.size, e.value);
    ctx_.misses.on_store(id_, e.addr);
    line->cu_counter = 0;
    // Single writer: a store into a private copy is globally ordered here.
    if (ctx_.observer) ctx_.observer->on_global_write(id_, e.addr, word_at(e.addr));
    entry_done(e.lane);
    return;
  }
  if (!line) {
    // Write-allocate: fetch the block first, then write through. The
    // writer stays a sharer afterwards, receiving updates for every later
    // modification of the block until it drops or flushes the copy.
    if (join_txn(b, [this, lane = e.lane] { drain_head(lane); })) fetch_shared(e.addr);
    return;
  }
  // Keep our own copy fresh; the global store is performed at the home.
  ++ctx_.counters.mem.write_hits;
  cache_.write(e.addr, e.size, e.value);
  line->cu_counter = 0;
  if (ctx_.observer) ctx_.observer->on_local_write(id_, e.addr, word_at(e.addr));
  Message m;
  m.type = MsgType::UpdateReq;
  m.dst = ctx_.alloc.home_of(b);
  m.addr = e.addr;
  m.payload = e.value;
  m.payload2 = e.size;
  send(m);
  ++outstanding_;  // one UpdateGrant per write-through
  entry_done(e.lane);  // write-through does not block the buffer
}

// ---------------------------------------------------------------------
// atomics: executed at the home memory
// ---------------------------------------------------------------------

void CacheController::update_atomic(net::AtomicOp op, Addr a, std::uint64_t v1,
                                    std::uint64_t v2, LoadCallback done) {
  CCSIM_CHECK(!atomic_.active,
              "node=%u addr=%#llx cycle=%llu: second atomic issued while one "
              "is in flight",
              static_cast<unsigned>(id_), static_cast<unsigned long long>(a),
              static_cast<unsigned long long>(ctx_.q.now()));
  ++ctx_.counters.mem.atomics;
  // Atomic instructions force a write-buffer flush (paper, section 3.1).
  cpu_fence([this, op, a, v1, v2, done = std::move(done)]() mutable {
    ctx_.updates.on_reference(id_, a);
    const mem::BlockAddr b = mem::block_of(a);
    if (mem::CacheLine* line = cache_.find(b);
        line && line->state == mem::LineState::PrivateDirty) {
      // Give the dirty copy back first so the home operates on fresh data.
      // FIFO delivery guarantees the Writeback precedes the AtomicReq.
      Message wb;
      wb.type = MsgType::Writeback;
      wb.dst = ctx_.alloc.home_of(b);
      wb.addr = mem::block_base(b);
      wb.flag = true;  // demote: we keep a ValidU copy
      wb.has_block = true;
      wb.block = line->data;
      note_writeback_sent(b);
      send(wb);
      line->state = mem::LineState::ValidU;
    }
    atomic_ = PendingAtomic{op, a, v1, v2, std::move(done), true, true};
    Message m;
    m.type = MsgType::AtomicReq;
    m.dst = ctx_.alloc.home_of(mem::block_of(a));
    m.addr = a;
    m.op = op;
    m.payload = v1;
    m.payload2 = v2;
    send(m);
  });
}

// ---------------------------------------------------------------------
// incoming messages
// ---------------------------------------------------------------------

void CacheController::apply_update(const Message& msg) {
  const mem::BlockAddr b = mem::block_of(msg.addr);
  mem::CacheLine* line = cache_.find(b);

  Message ack;
  ack.type = MsgType::UpdateAck;
  ack.dst = msg.requester;
  ack.addr = msg.addr;

  if (!line) {
    // Stale update: we pruned or evicted the block while this message was
    // in flight. Still acknowledge so the writer's count settles.
    if (ctx_.observer)
      ctx_.observer->on_update_delivered(id_, msg.addr, msg.requester,
                                         obs::Observers::Delivery::Stale);
    send(ack);
    return;
  }
  const unsigned drop_threshold =
      ctx_.mode_of(b) == Protocol::CU ? ctx_.cu_threshold : 0;  // 0: never drop
  if (drop_threshold != 0 && ++line->cu_counter >= drop_threshold) {
    // Competitive policy: this update trips the counter; self-invalidate
    // and ask the home to stop sending updates.
    ctx_.updates.on_drop_update(id_, msg.addr);
    if (ctx_.observer)
      ctx_.observer->on_update_delivered(id_, msg.addr, msg.requester,
                                         obs::Observers::Delivery::Dropped);
    ctx_.misses.on_dropped(id_, b);
    line->state = mem::LineState::Invalid;
    cache_.notify(b);
    if (atomic_.active && mem::block_of(atomic_.addr) == b) atomic_.fill_ok = false;
    Message prune;
    prune.type = MsgType::Prune;
    prune.dst = ctx_.alloc.home_of(b);
    prune.addr = mem::block_base(b);
    send(prune);
    send(ack);
    return;
  }
  cache_.write(msg.addr, msg.payload2 ? msg.payload2 : mem::kWordSize, msg.payload);
  ctx_.updates.on_update_applied(id_, msg.addr);
  // The value is already globally ordered (the home multicast it); the
  // checker records the word image this copy now shows, which can differ
  // transiently from the home's under sub-word write interleavings.
  if (ctx_.observer)
    ctx_.observer->on_update_delivered(id_, msg.addr, msg.requester,
                                       obs::Observers::Delivery::Applied,
                                       word_at(msg.addr));
  cache_.notify(b);
  send(ack);
}

void CacheController::update_on_message(const Message& msg) {
  const mem::BlockAddr b = mem::block_of(msg.addr);
  // Both fills park on an MSHR conflict. Only a WI victim can have a
  // transaction outstanding (an Upgrade, on a Hybrid machine): an update
  // block's valid line never does.
  switch (msg.type) {
    case MsgType::DataS:
      if (park_fill(msg)) break;
      install(b, msg.block, mem::LineState::ValidU);
      complete_txn(b);
      break;

    case MsgType::Update:
      apply_update(msg);
      break;

    case MsgType::UpdateGrant:
      --outstanding_;
      pending_acks_ += static_cast<std::int64_t>(msg.payload);
      if (msg.flag) {
        if (mem::CacheLine* line = cache_.find(b)) {
          line->state = mem::LineState::PrivateDirty;
          if (ctx_.observer) ctx_.observer->on_writable(id_, b);
        }
      }
      check_fences();
      break;

    case MsgType::UpdateAck:
      --pending_acks_;
      check_fences();
      break;

    case MsgType::WritebackAck:
      note_writeback_acked(b);
      break;

    case MsgType::Recall: {
      mem::CacheLine* line = cache_.find(b);
      Message r;
      r.type = MsgType::RecallReply;
      r.dst = ctx_.alloc.home_of(b);
      r.addr = mem::block_base(b);
      if (line) {
        r.flag = false;
        r.has_block = true;
        r.block = line->data;
        line->state = mem::LineState::ValidU;
      } else {
        r.flag = true;  // absent: our eviction writeback is in flight
      }
      send(r);
      break;
    }

    case MsgType::AtomicReply: {
      if (park_fill(msg)) break;
      CCSIM_CHECK(atomic_.active,
                  "node=%u block=%#llx cycle=%llu: atomic reply with no "
                  "atomic in flight",
                  static_cast<unsigned>(id_), static_cast<unsigned long long>(b),
                  static_cast<unsigned long long>(ctx_.q.now()));
      PendingAtomic pa = std::move(atomic_);
      atomic_.active = false;
      const std::uint64_t old = msg.payload;
      pending_acks_ += static_cast<std::int64_t>(msg.payload2);
      const mem::BlockAddr ab = mem::block_of(pa.addr);
      if (mem::CacheLine* line = cache_.find(ab)) {
        // Install the block image the home captured when it injected the
        // reply. FIFO delivery makes this exactly current: updates from
        // operations the home processed before the injection are included
        // in the image, and updates from later operations arrive after
        // this message and apply on top. (Recomputing old+delta locally
        // would clobber an update that overtook the reply.)
        line->data = msg.block;
        line->cu_counter = 0;
        cache_.notify(ab);
      } else if (pa.fill_ok) {
        // Atomically-accessed data is cached like everything else: the
        // reply carries the block, and the home made us a sharer. The
        // fetch counts as a miss (cold / drop / eviction by history). No
        // transaction is open: the atomic's fence emptied the write buffer
        // and the processor issues nothing else until the reply.
        ctx_.misses.classify_miss(id_, pa.addr);
        install(ab, msg.block, mem::LineState::ValidU);
      }
      check_fences();
      ctx_.q.schedule(kHitCycles, [done = std::move(pa.done), old] { done(old); });
      break;
    }

    default:
      CCSIM_CHECK(false,
                  "node=%u block=%#llx cycle=%llu: unexpected %s at update "
                  "cache controller",
                  static_cast<unsigned>(id_), static_cast<unsigned long long>(b),
                  static_cast<unsigned long long>(ctx_.q.now()),
                  std::string(net::to_string(msg.type)).c_str());
  }
}

} // namespace ccsim::proto
