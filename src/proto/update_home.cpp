#include "proto/update_controllers.hpp"

#include "obs/hot_blocks.hpp"
#include "obs/observer.hpp"
#include "sim/check.hpp"

#include <cassert>
#include <string>

namespace ccsim::proto {

using net::Message;
using net::MsgType;
using mem::DirEntry;
using mem::DirState;

void UpdateHomeController::on_message(const Message& msg) {
  const mem::BlockAddr b = mem::block_of(msg.addr);
  switch (msg.type) {
    case MsgType::GetS:
    case MsgType::UpdateReq:
    case MsgType::AtomicReq:
      if (ctx_.hot) ctx_.hot->on_home_txn(b);
      if (pending_.contains(b)) {
        pending_[b].queued.push_back(msg);
        return;
      }
      process(msg);
      return;

    case MsgType::Prune:
    case MsgType::ReplHint: {
      memory_.book(ctx_.q.now(), mem::MemoryModule::AccessKind::DirOnly);
      DirEntry& e = dir_.entry(b);
      e.remove_sharer(msg.src);
      if (e.state == DirState::Private && e.owner == msg.src) {
        // The owner dropped a still-clean copy before learning it had been
        // granted private mode (the grant and the hint crossed). Memory is
        // current, so dissolve private mode and release anything parked.
        e.state = e.sharers == 0 ? DirState::Unowned : DirState::Update;
        e.owner = kInvalidNode;
        if (pending_.contains(b)) replay(b);
      } else if (e.state == DirState::Update && e.sharers == 0) {
        e.state = DirState::Unowned;
      }
      return;
    }

    case MsgType::Writeback: {
      absorb_writeback(msg);
      DirEntry& e = dir_.entry(b);
      if (msg.flag) {
        // Demotion: the writer keeps a ValidU copy.
        e.state = DirState::Update;
        e.owner = kInvalidNode;
        e.add_sharer(msg.src);
      } else {
        // Eviction of a private-dirty copy.
        e.remove_sharer(msg.src);
        e.owner = kInvalidNode;
        e.state = e.sharers == 0 ? DirState::Unowned : DirState::Update;
      }
      if (auto it = pending_.find(b); it != pending_.end() && it->second.waiting_wb)
        replay(b);
      return;
    }

    case MsgType::RecallReply: {
      auto it = pending_.find(b);
      CCSIM_CHECK(it != pending_.end(),
                  "home=%u block=%#llx cycle=%llu: RecallReply without a "
                  "recall in flight",
                  static_cast<unsigned>(id_), static_cast<unsigned long long>(b),
                  static_cast<unsigned long long>(ctx_.q.now()));
      if (msg.flag) {
        // Owner evicted; wait for its Writeback (unless it already landed).
        DirEntry& e = dir_.entry(b);
        if (e.state != DirState::Private) {
          replay(b);
        } else {
          it->second.waiting_wb = true;
        }
        return;
      }
      memory_.book(ctx_.q.now(), mem::MemoryModule::AccessKind::BlockWrite);
      memory_.write_block(b, msg.block);
      DirEntry& e = dir_.entry(b);
      e.state = DirState::Update;
      e.owner = kInvalidNode;
      e.add_sharer(msg.src);  // the demoted owner keeps its copy
      replay(b);
      return;
    }

    default:
      CCSIM_CHECK(false,
                  "home=%u block=%#llx cycle=%llu: unexpected %s at update "
                  "home controller",
                  static_cast<unsigned>(id_), static_cast<unsigned long long>(b),
                  static_cast<unsigned long long>(ctx_.q.now()),
                  std::string(net::to_string(msg.type)).c_str());
  }
}

void UpdateHomeController::process(const Message& msg) {
  switch (msg.type) {
    case MsgType::GetS: serve_gets(msg); break;
    case MsgType::UpdateReq: serve_update(msg); break;
    case MsgType::AtomicReq: serve_atomic(msg); break;
    default:
      CCSIM_CHECK(false, "home=%u cycle=%llu: %s is not a queueable request",
                  static_cast<unsigned>(id_),
                  static_cast<unsigned long long>(ctx_.q.now()),
                  std::string(net::to_string(msg.type)).c_str());
  }
}

void UpdateHomeController::start_recall(mem::BlockAddr b, const Message& first) {
  DirEntry& e = dir_.entry(b);
  CCSIM_CHECK(e.state == DirState::Private,
              "home=%u block=%#llx cycle=%llu: recall of a block not in "
              "Private mode",
              static_cast<unsigned>(id_), static_cast<unsigned long long>(b),
              static_cast<unsigned long long>(ctx_.q.now()));
  Pending& p = pending_[b];
  p.queued.push_back(first);
  Message r;
  r.type = MsgType::Recall;
  r.dst = e.owner;
  r.addr = mem::block_base(b);
  send(r);
}

void UpdateHomeController::replay(mem::BlockAddr b) {
  auto it = pending_.find(b);
  if (it == pending_.end()) return;
  std::deque<Message> queued = std::move(it->second.queued);
  pending_.erase(it);
  while (!queued.empty()) {
    Message m = queued.front();
    queued.pop_front();
    if (pending_.contains(b)) {
      // Processing re-entered a recall; push the remainder behind it.
      auto& q = pending_[b].queued;
      q.insert(q.end(), queued.begin(), queued.end());
      return;
    }
    process(m);
  }
}

void UpdateHomeController::serve_gets(const Message& msg) {
  const mem::BlockAddr b = mem::block_of(msg.addr);
  DirEntry& e = dir_.entry(b);
  if (e.state == DirState::Private) {
    if (e.owner == msg.src) {
      // Owner evicted its private copy and re-missed before the writeback
      // arrived; park the request until the writeback lands.
      Pending& p = pending_[b];
      p.queued.push_back(msg);
      p.waiting_wb = true;
    } else {
      start_recall(b, msg);
    }
    return;
  }
  const Cycle ready = memory_.book(ctx_.q.now(), mem::MemoryModule::AccessKind::BlockRead);
  Message d;
  d.type = MsgType::DataS;
  d.dst = msg.src;
  d.addr = msg.addr;
  d.has_block = true;
  e.state = DirState::Update;
  e.add_sharer(msg.src);
  reply_at(ready, d);
}

void UpdateHomeController::multicast_update(mem::BlockAddr b, Addr word_addr,
                                            std::uint64_t value, std::size_t size,
                                            NodeId writer, unsigned& count) {
  DirEntry& e = dir_.entry(b);
  count = 0;
  for (NodeId s = 0; s < ctx_.nprocs; ++s) {
    if (s == writer || !e.has_sharer(s)) continue;
    Message u;
    u.type = MsgType::Update;
    u.dst = s;
    u.addr = word_addr;
    u.payload = value;
    u.payload2 = size;
    u.requester = writer;
    send(u);
    ++count;
  }
}

void UpdateHomeController::serve_update(const Message& msg) {
  const mem::BlockAddr b = mem::block_of(msg.addr);
  DirEntry& e = dir_.entry(b);
  if (e.state == DirState::Private && e.owner != msg.src) {
    start_recall(b, msg);
    return;
  }

  memory_.book(ctx_.q.now(), mem::MemoryModule::AccessKind::WordWrite);
  memory_.write_word(msg.addr, msg.payload2, msg.payload);
  ctx_.misses.on_store(msg.src, msg.addr);
  // The home orders update-protocol writes: this is the global-order point.
  if (ctx_.observer)
    ctx_.observer->on_global_write(
        msg.src, msg.addr,
        memory_.read_word(msg.addr - msg.addr % mem::kWordSize, mem::kWordSize));

  Message g;
  g.type = MsgType::UpdateGrant;
  g.dst = msg.src;
  g.addr = msg.addr;
  if (e.state == DirState::Private) {
    // The writer raced its own private grant: keep it private.
    g.flag = true;
  } else if (enable_private_ && e.state == DirState::Update &&
             e.only_sharer_is(msg.src)) {
    // Only the writer caches this block: tell it to retain future updates
    // (PU's private-block optimization, paper section 3.1).
    e.state = DirState::Private;
    e.owner = msg.src;
    g.flag = true;
  } else {
    unsigned count = 0;
    multicast_update(b, msg.addr, msg.payload, msg.payload2, msg.src, count);
    g.payload = count;
  }
  send(g);
}

void UpdateHomeController::serve_atomic(const Message& msg) {
  const mem::BlockAddr b = mem::block_of(msg.addr);
  DirEntry& e = dir_.entry(b);
  if (e.state == DirState::Private) {
    if (e.owner == msg.src) {
      // The requester demotes before issuing an atomic, and FIFO delivery
      // puts its Writeback ahead of the AtomicReq -- but the grant that
      // made it private may still have been in flight when it fenced.
      // Park until the state settles via the writeback.
      Pending& p = pending_[b];
      p.queued.push_back(msg);
      p.waiting_wb = true;
    } else {
      start_recall(b, msg);
    }
    return;
  }

  const Cycle ready = memory_.book(ctx_.q.now(), mem::MemoryModule::AccessKind::WordRead);
  const std::uint64_t old = memory_.read_word(msg.addr, mem::kWordSize);
  const auto next = net::apply_atomic(msg.op, old, msg.payload, msg.payload2);
  if (ctx_.observer) ctx_.observer->on_read(msg.src, msg.addr, old);
  if (next) {
    memory_.write_word(msg.addr, mem::kWordSize, *next);
    ctx_.misses.on_store(msg.src, msg.addr);
    if (ctx_.observer) ctx_.observer->on_global_write(msg.src, msg.addr, *next);
  }

  // Atomically-accessed data follows the same coherence protocol as all
  // other shared data (section 3.1): the requester caches the block, so it
  // joins the sharing set and the reply carries the block image. This is
  // what makes every MCS acquire/release multicast the tail pointer to all
  // past lockers under PU -- the paper's "sharing the global pointer to
  // the end of the list".
  e.add_sharer(msg.src);
  if (e.state == DirState::Unowned) e.state = DirState::Update;

  unsigned count = 0;
  if (next) multicast_update(b, msg.addr, *next, mem::kWordSize, msg.src, count);

  Message r;
  r.type = MsgType::AtomicReply;
  r.dst = msg.src;
  r.addr = msg.addr;
  r.payload = old;
  r.payload2 = count;
  r.has_block = true;
  reply_at(ready, r);
}

} // namespace ccsim::proto
