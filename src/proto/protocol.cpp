#include "proto/protocol.hpp"

#include "proto/cache_base.hpp"
#include "proto/update_controllers.hpp"
#include "proto/hybrid.hpp"
#include "proto/wi_controllers.hpp"

namespace ccsim::proto {

bool is_home_bound(net::MsgType t) noexcept {
  using net::MsgType;
  switch (t) {
    case MsgType::GetS:
    case MsgType::GetX:
    case MsgType::Upgrade:
    case MsgType::SharedWB:
    case MsgType::ExclDone:
    case MsgType::FwdNack:
    case MsgType::Writeback:
    case MsgType::ReplHint:
    case MsgType::UpdateReq:
    case MsgType::Prune:
    case MsgType::RecallReply:
    case MsgType::AtomicReq:
      return true;
    default:
      return false;
  }
}

std::unique_ptr<CacheController> make_cache_controller(Protocol p, NodeId id,
                                                       ProtocolContext& ctx,
                                                       std::size_t cache_bytes,
                                                       std::size_t wb_entries) {
  switch (p) {
    case Protocol::WI:
      return std::make_unique<WiCacheController>(id, ctx, cache_bytes, wb_entries);
    case Protocol::PU:
      return std::make_unique<UpdateCacheController>(id, ctx, cache_bytes, wb_entries,
                                                     /*drop_threshold=*/0);
    case Protocol::CU:
      return std::make_unique<UpdateCacheController>(id, ctx, cache_bytes, wb_entries,
                                                     ctx.cu_threshold);
    case Protocol::Hybrid:
      return std::make_unique<HybridCacheController>(id, ctx, cache_bytes, wb_entries);
  }
  return nullptr;
}

std::unique_ptr<HomeController> make_home_controller(Protocol p, NodeId id,
                                                     ProtocolContext& ctx,
                                                     mem::MemTimings timings) {
  switch (p) {
    case Protocol::WI:
      return std::make_unique<WiHomeController>(id, ctx, timings);
    case Protocol::PU:
      return std::make_unique<UpdateHomeController>(id, ctx, timings,
                                                    /*enable_private=*/true);
    case Protocol::CU:
      return std::make_unique<UpdateHomeController>(id, ctx, timings,
                                                    /*enable_private=*/false);
    case Protocol::Hybrid:
      return std::make_unique<HybridHomeController>(id, ctx, timings);
  }
  return nullptr;
}

// ---------------------------------------------------------------------
// BaseCacheController
// ---------------------------------------------------------------------

void BaseCacheController::cpu_load(Addr a, std::size_t size, LoadCallback done) {
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
    on_cache_hit(*line, a);
    // Read at completion time, not issue time: an update applied during
    // the hit latency must be observed (its change notification has
    // already fired, so a spinner would otherwise sleep on a stale value).
    ctx_.q.schedule(kHitCycles, [this, a, size, done = std::move(done)]() mutable {
      if (cache_.find(mem::block_of(a))) {
        if (ctx_.checker)
          ctx_.checker->on_read(id_, a,
                                cache_.read(a - a % mem::kWordSize, mem::kWordSize));
        if (ctx_.sharing) ctx_.sharing->on_read(id_, a);
        done(cache_.read(a, size));
      } else {
        // The line vanished during the hit latency (invalidation/drop):
        // retry as a fresh access.
        --ctx_.counters.mem.shared_reads;
        cpu_load(a, size, std::move(done));
      }
    });
    return;
  }
  handle_load_miss(a, size, std::move(done));
}

void BaseCacheController::cpu_store(Addr a, std::size_t size, std::uint64_t v,
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

  const mem::WriteBufferEntry e{a, size, v};
  if (!wb_.full()) {
    wb_.push(e);
    ctx_.q.schedule(kHitCycles, std::move(done));
    kick_drain();
    return;
  }
  store_stalls_.push_back({e, std::move(done), ctx_.q.now()});
}

void BaseCacheController::cpu_fence(DoneCallback done) {
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

void BaseCacheController::entry_done() {
  wb_.pop();
  if (!store_stalls_.empty()) {
    StalledStore s = std::move(store_stalls_.front());
    store_stalls_.erase(store_stalls_.begin());
    ctx_.counters.mem.write_buffer_stalls += ctx_.q.now() - s.since;
    wb_.push(s.entry);
    ctx_.q.schedule(kHitCycles, std::move(s.done));
  }
  check_fences();
  if (!wb_.empty())
    ctx_.q.schedule(1, [this] { drain_head(); });
  else
    draining_ = false;
}

void BaseCacheController::kick_drain() {
  if (draining_ || wb_.empty()) return;
  draining_ = true;
  ctx_.q.schedule(1, [this] { drain_head(); });
}

void BaseCacheController::check_fences() {
  if (!fence_clear() || fence_waiters_.empty()) return;
  std::vector<DoneCallback> ws = std::move(fence_waiters_);
  fence_waiters_.clear();
  for (auto& w : ws) w();
}

} // namespace ccsim::proto
