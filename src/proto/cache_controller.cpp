#include "proto/cache_controller.hpp"

#include "obs/observer.hpp"
#include "sim/check.hpp"

#include <cassert>

namespace ccsim::proto {

using net::Message;
using net::MsgType;

// ---------------------------------------------------------------------
// entry points: the block's mode picks the state machine
// ---------------------------------------------------------------------

void CacheController::cpu_atomic(net::AtomicOp op, Addr a, std::uint64_t v1,
                                 std::uint64_t v2, LoadCallback done) {
  assert(mem::is_shared(a));
  if (ctx_.mode_of(mem::block_of(a)) == Protocol::WI)
    wi_atomic(op, a, v1, v2, std::move(done));
  else
    update_atomic(op, a, v1, v2, std::move(done));
}

void CacheController::drain_head(std::uint8_t lane) {
  const mem::WriteBufferEntry e = wb_.front(lane);
  if (ctx_.mode_of(mem::block_of(e.addr)) == Protocol::WI)
    wi_drain(e);
  else
    update_drain(e);
}

void CacheController::on_message(const Message& msg) {
  if (ctx_.mode_of(mem::block_of(msg.addr)) == Protocol::WI)
    wi_on_message(msg);
  else
    update_on_message(msg);
}

// ---------------------------------------------------------------------
// shared machinery
// ---------------------------------------------------------------------

void CacheController::cpu_load(Addr a, std::size_t size, LoadCallback done) {
  assert(mem::within_word(a, size));
  if (!mem::is_shared(a)) {
    const std::uint64_t v = read_private(a);
    ctx_.q.schedule(kHitCycles, [done = std::move(done), v] { done(v); });
    return;
  }
  ++ctx_.counters.mem.shared_reads;
  ctx_.updates.on_reference(id_, a);

  // Reads bypass queued writes; an exactly-matching queued store forwards.
  if (auto fwd = wb_.forward(a, size)) {
    ctx_.q.schedule(kHitCycles, [done = std::move(done), v = *fwd] { done(v); });
    return;
  }
  if (wb_.partially_overlaps(a, size)) {
    // Rare: wait a cycle for the buffer to drain past the overlap.
    ctx_.q.schedule(1, [this, a, size, done = std::move(done)]() mutable {
      --ctx_.counters.mem.shared_reads;  // will be recounted on retry
      cpu_load(a, size, std::move(done));
    });
    return;
  }

  const mem::BlockAddr b = mem::block_of(a);
  if (mem::CacheLine* line = cache_.find(b)) {
    ++ctx_.counters.mem.read_hits;
    line->cu_counter = 0;  // a local reference resets CU's drop counter
    complete_load_later(a, size, std::move(done));
    return;
  }
  // An outstanding fetch of the block satisfies the load; it is not a new miss.
  if (join_txn(b, LoadWaiter{a, size, std::move(done)})) fetch_shared(a);
}

void CacheController::cpu_store(Addr a, std::size_t size, std::uint64_t v,
                                DoneCallback done) {
  assert(mem::within_word(a, size));
  if (!mem::is_shared(a)) {
    private_mem_[a] = v;
    ctx_.q.schedule(kHitCycles, std::move(done));
    return;
  }
  ++ctx_.counters.mem.shared_writes;
  ctx_.updates.on_reference(id_, a);

  // Under sequential consistency the store completes (from the
  // processor's view) only once globally performed: chain a full fence
  // behind the buffer-accept.
  if (ctx_.consistency == Consistency::Sequential) {
    done = [this, done = std::move(done)]() mutable { cpu_fence(std::move(done)); };
  }

  const auto lane = static_cast<std::uint8_t>(ctx_.mode_of(mem::block_of(a)));
  const mem::WriteBufferEntry e{a, size, v, lane};
  if (!wb_.full()) {
    wb_.push(e);
    ctx_.q.schedule(kHitCycles, std::move(done));
    kick_drain(lane);
    return;
  }
  store_stalls_.push_back({e, std::move(done), ctx_.q.now()});
}

void CacheController::cpu_fence(DoneCallback done) {
  if (fence_clear()) {
    ctx_.q.schedule(0, std::move(done));
    return;
  }
  const Cycle entered = ctx_.q.now();
  fence_waiters_.push_back([this, entered, done = std::move(done)]() mutable {
    ctx_.counters.mem.fence_stall_cycles += ctx_.q.now() - entered;
    done();
  });
}

void CacheController::cpu_flush(Addr a, DoneCallback done) {
  const mem::BlockAddr b = mem::block_of(a);
  if (wb_.contains_block(b) || txns_.contains(b)) {
    ctx_.q.schedule(1, [this, a, done = std::move(done)]() mutable {
      cpu_flush(a, std::move(done));
    });
    return;
  }
  if (mem::CacheLine* line = cache_.find(b)) evict_line(*line);
  ctx_.q.schedule(kHitCycles, std::move(done));
}

void CacheController::complete_load_later(Addr a, std::size_t size, LoadCallback done) {
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

bool CacheController::join_txn(mem::BlockAddr b, LoadWaiter w) {
  auto [it, opened] = txns_.try_emplace(b);
  it->second.loads.push_back(std::move(w));
  return opened;
}

bool CacheController::join_txn(mem::BlockAddr b, std::function<void()> retry) {
  auto [it, opened] = txns_.try_emplace(b);
  it->second.retries.push_back(std::move(retry));
  return opened;
}

void CacheController::fetch_shared(Addr a) {
  ctx_.misses.classify_miss(id_, a);
  Message m;
  m.type = MsgType::GetS;
  m.dst = ctx_.alloc.home_of(mem::block_of(a));
  m.addr = a;
  send(m);
}

void CacheController::complete_txn(mem::BlockAddr b) {
  auto it = txns_.find(b);
  CCSIM_CHECK(it != txns_.end(),
              "node=%u block=%#llx cycle=%llu: transaction completing that was "
              "never opened",
              static_cast<unsigned>(id_), static_cast<unsigned long long>(b),
              static_cast<unsigned long long>(ctx_.q.now()));
  Txn t = std::move(it->second);
  txns_.erase(it);

  // Waiting loads complete at +1 reading the line then (see
  // complete_load_later); if the deferred invalidation below takes the
  // line first, they retry with a fresh fetch.
  for (auto& w : t.loads) complete_load_later(w.addr, w.size, std::move(w.done));
  for (auto& r : t.retries) ctx_.q.schedule(1, std::move(r));

  if (t.inval_on_fill) {
    if (mem::CacheLine* line = cache_.find(b)) invalidate_line(*line, t.inval_trigger);
  }
}

bool CacheController::park_fill(const Message& fill) {
  const mem::BlockAddr b = mem::block_of(fill.addr);
  const mem::CacheLine& victim = cache_.set_for(b);
  if (!victim.valid() || victim.block == b) return false;
  auto it = txns_.find(victim.block);
  if (it == txns_.end()) return false;
  it->second.retries.push_back([this, fill] { on_message(fill); });
  return true;
}

void CacheController::install(mem::BlockAddr b,
                              const std::array<std::byte, mem::kBlockSize>& data,
                              mem::LineState state) {
  mem::CacheLine& line = cache_.set_for(b);
  if (line.valid() && line.block != b) evict_line(line);
  line.block = b;
  line.state = state;
  line.data = data;
  line.cu_counter = 0;
  ctx_.misses.on_fill(id_, b);
  cache_.notify(b);
}

void CacheController::evict_line(mem::CacheLine& line) {
  const mem::BlockAddr b = line.block;
  Message m;
  m.dst = ctx_.alloc.home_of(b);
  m.addr = mem::block_base(b);
  if (line.state == mem::LineState::Modified ||
      line.state == mem::LineState::PrivateDirty) {
    m.type = MsgType::Writeback;
    m.has_block = true;
    m.block = line.data;
    note_writeback_sent(b);
  } else {
    m.type = MsgType::ReplHint;
  }
  send(m);
  ctx_.misses.on_evicted(id_, b);
  ctx_.updates.on_block_replaced(id_, b);
  line.state = mem::LineState::Invalid;
  cache_.notify(b);
  if (atomic_.active && mem::block_of(atomic_.addr) == b) atomic_.fill_ok = false;
}

void CacheController::invalidate_line(mem::CacheLine& l, Addr trigger) {
  ctx_.misses.on_invalidated(id_, l.block, trigger);
  l.state = mem::LineState::Invalid;
  cache_.notify(l.block);
}

void CacheController::entry_done(std::uint8_t lane) {
  wb_.pop(lane);
  if (!store_stalls_.empty()) {
    StalledStore s = std::move(store_stalls_.front());
    store_stalls_.erase(store_stalls_.begin());
    ctx_.counters.mem.write_buffer_stalls += ctx_.q.now() - s.since;
    wb_.push(s.entry);
    ctx_.q.schedule(kHitCycles, std::move(s.done));
    kick_drain(s.entry.lane);  // a no-op when it joins this lane
  }
  check_fences();
  if (wb_.has_lane(lane))
    ctx_.q.schedule(1, [this, lane] { drain_head(lane); });
  else
    draining_[lane] = false;
}

void CacheController::kick_drain(std::uint8_t lane) {
  if (draining_[lane]) return;
  draining_[lane] = true;
  ctx_.q.schedule(1, [this, lane] { drain_head(lane); });
}

void CacheController::check_fences() {
  if (!fence_clear() || fence_waiters_.empty()) return;
  std::vector<DoneCallback> ws = std::move(fence_waiters_);
  fence_waiters_.clear();
  for (auto& w : ws) w();
}

} // namespace ccsim::proto
