// Write-invalidate cache side (DASH-like, release consistent; paper
// section 3.1): MSI states. Read misses send GetS; writes drain from the
// write buffer and send GetX (Invalid) or Upgrade (Shared); the processor
// stalls for invalidation acknowledgements only at release fences. Atomic
// instructions obtain an exclusive copy and execute in the cache controller.
#include "proto/cache_controller.hpp"

#include "obs/observer.hpp"
#include "sim/check.hpp"

#include <string>

namespace ccsim::proto {

using net::Message;
using net::MsgType;

// ---------------------------------------------------------------------
// stores (write-buffer drain)
// ---------------------------------------------------------------------

void CacheController::perform_store(const mem::WriteBufferEntry& e) {
  cache_.write(e.addr, e.size, e.value);
  ctx_.misses.on_store(id_, e.addr);
  // A store into a Modified line is globally ordered the moment it lands.
  if (ctx_.observer) ctx_.observer->on_global_write(id_, e.addr, word_at(e.addr));
}

void CacheController::wi_drain(const mem::WriteBufferEntry& e) {
  mem::CacheLine* line = cache_.find(mem::block_of(e.addr));
  if (line && line->state == mem::LineState::Modified) {
    ++ctx_.counters.mem.write_hits;
    perform_store(e);
    entry_done(e.lane);
    return;
  }
  request_exclusive(e.addr, line, [this, lane = e.lane] { drain_head(lane); });
}

/// Wait for an exclusive copy of `a`'s block, then `retry`: join the
/// block's outstanding transaction, or open one with an Upgrade (the line
/// is Shared) or a GetX.
void CacheController::request_exclusive(Addr a, const mem::CacheLine* line,
                                        std::function<void()> retry) {
  const mem::BlockAddr b = mem::block_of(a);
  if (!join_txn(b, std::move(retry))) return;
  ++outstanding_;

  Message m;
  m.addr = a;
  m.dst = ctx_.alloc.home_of(b);
  if (line && line->state == mem::LineState::Shared) {
    ctx_.misses.on_exclusive_request(id_);
    m.type = MsgType::Upgrade;
  } else {
    ctx_.misses.classify_miss(id_, a);
    m.type = MsgType::GetX;
  }
  send(m);
}

// ---------------------------------------------------------------------
// atomics (executed in the cache controller under WI)
// ---------------------------------------------------------------------

void CacheController::do_atomic_local(net::AtomicOp op, Addr a, std::uint64_t v1,
                                      std::uint64_t v2, LoadCallback done) {
  const std::uint64_t old = cache_.read(a, mem::kWordSize);
  if (ctx_.observer) ctx_.observer->on_read(id_, a, old);
  if (const auto next = net::apply_atomic(op, old, v1, v2)) {
    cache_.write(a, mem::kWordSize, *next);
    ctx_.misses.on_store(id_, a);
    if (ctx_.observer) ctx_.observer->on_global_write(id_, a, *next);
  }
  ctx_.q.schedule(kAtomicCycles, [done = std::move(done), old] { done(old); });
}

void CacheController::wi_atomic(net::AtomicOp op, Addr a, std::uint64_t v1,
                                std::uint64_t v2, LoadCallback done) {
  ++ctx_.counters.mem.atomics;
  // Atomic instructions force a write-buffer flush (paper, section 3.1).
  cpu_fence([this, op, a, v1, v2, done = std::move(done)]() mutable {
    ctx_.updates.on_reference(id_, a);
    wi_atomic_resume(op, a, v1, v2, std::move(done));
  });
}

void CacheController::wi_atomic_resume(net::AtomicOp op, Addr a, std::uint64_t v1,
                                       std::uint64_t v2, LoadCallback done) {
  mem::CacheLine* line = cache_.find(mem::block_of(a));
  if (line && line->state == mem::LineState::Modified) {
    do_atomic_local(op, a, v1, v2, std::move(done));
    return;
  }
  request_exclusive(a, line, [this, op, a, v1, v2, done = std::move(done)]() mutable {
    wi_atomic_resume(op, a, v1, v2, std::move(done));
  });
}

// ---------------------------------------------------------------------
// incoming messages
// ---------------------------------------------------------------------

/// The exclusive copy of `b` arrived (DataX / OwnerDataX) or the Shared
/// line was upgraded (UpgAck): `acks` invalidation acks will follow.
/// ExclDone closes the home's transaction.
void CacheController::grant_exclusive(mem::BlockAddr b, std::uint64_t acks) {
  if (ctx_.observer) ctx_.observer->on_writable(id_, b);
  pending_acks_ += static_cast<std::int64_t>(acks);
  --outstanding_;
  Message fin;
  fin.type = MsgType::ExclDone;
  fin.dst = ctx_.alloc.home_of(b);
  fin.addr = mem::block_base(b);
  send(fin);
  complete_txn(b);
  check_fences();
}

void CacheController::wi_on_message(const Message& msg) {
  const mem::BlockAddr b = mem::block_of(msg.addr);
  switch (msg.type) {
    case MsgType::DataS:
    case MsgType::OwnerDataS:
      if (park_fill(msg)) break;
      install(b, msg.block, mem::LineState::Shared);
      complete_txn(b);
      break;

    case MsgType::DataX:
    case MsgType::OwnerDataX:
      if (park_fill(msg)) break;
      install(b, msg.block, mem::LineState::Modified);
      grant_exclusive(b, msg.payload);
      break;

    case MsgType::UpgAck: {
      mem::CacheLine* line = cache_.find(b);
      CCSIM_CHECK(line && line->state == mem::LineState::Shared,
                  "node=%u block=%#llx cycle=%llu: upgrade grant for a line "
                  "not held Shared",
                  static_cast<unsigned>(id_), static_cast<unsigned long long>(b),
                  static_cast<unsigned long long>(ctx_.q.now()));
      line->state = mem::LineState::Modified;
      grant_exclusive(b, msg.payload);
      break;
    }

    case MsgType::Inval: {
      if (mem::CacheLine* line = cache_.find(b)) {
        invalidate_line(*line, msg.addr);
      } else if (auto it = txns_.find(b); it != txns_.end()) {
        it->second.inval_on_fill = true;
        it->second.inval_trigger = msg.addr;
      }
      Message ack;
      ack.type = MsgType::InvalAck;
      ack.dst = msg.requester;
      ack.addr = msg.addr;
      send(ack);
      break;
    }

    case MsgType::InvalAck:
      --pending_acks_;
      check_fences();
      break;

    case MsgType::WritebackAck:
      note_writeback_acked(b);
      break;

    case MsgType::FwdGetS:
    case MsgType::FwdGetX: {
      mem::CacheLine* line = cache_.find(b);
      // Nack if we no longer hold the block, or if our own writeback of it
      // is still in flight: the home will replay this transaction off the
      // writeback. (Deferring here would deadlock -- our refetch is queued
      // at the home behind the very transaction this forward belongs to.)
      if (!line || (line->state != mem::LineState::Modified && writeback_in_flight(b))) {
        Message n;
        n.type = MsgType::FwdNack;
        n.dst = ctx_.alloc.home_of(b);
        n.addr = msg.addr;
        send(n);
        break;
      }
      Message d;
      d.dst = msg.requester;
      d.addr = msg.addr;
      d.has_block = true;
      d.block = line->data;
      if (msg.type == MsgType::FwdGetX) {
        d.type = MsgType::OwnerDataX;
        d.payload = 0;  // no invalidation acks follow a forwarded transfer
        send(d);
        invalidate_line(*line, msg.addr);
        break;
      }
      d.type = MsgType::OwnerDataS;
      send(d);
      Message wb;
      wb.type = MsgType::SharedWB;
      wb.dst = ctx_.alloc.home_of(b);
      wb.addr = mem::block_base(b);
      wb.requester = msg.requester;
      wb.has_block = true;
      wb.block = line->data;
      send(wb);
      line->state = mem::LineState::Shared;
      break;
    }

    default:
      CCSIM_CHECK(false,
                  "node=%u block=%#llx cycle=%llu: unexpected %s at WI cache "
                  "controller",
                  static_cast<unsigned>(id_), static_cast<unsigned long long>(b),
                  static_cast<unsigned long long>(ctx_.q.now()),
                  std::string(net::to_string(msg.type)).c_str());
  }
}

} // namespace ccsim::proto
