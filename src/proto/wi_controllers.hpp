// Write-invalidate protocol (DASH-like full-map directory, release
// consistent), paper section 3.1.
//
// Cache side: MSI states. Read misses send GetS; writes drain from the
// write buffer and send GetX (Invalid) or Upgrade (Shared); the processor
// stalls for invalidation acknowledgements only at release fences. Atomic
// instructions obtain an exclusive copy and execute in the cache controller.
//
// Home side: one transaction per block at a time (queued); dirty blocks are
// forwarded DASH-style (home -> owner -> requester, with a SharedWB or
// ExclDone closing message back to the home). Races between forwards and
// evictions resolve with FwdNack + writeback replay.
#pragma once

#include "proto/cache_base.hpp"

#include <deque>
#include <functional>
#include <unordered_map>

namespace ccsim::proto {

class WiCacheController final : public BaseCacheController {
public:
  using BaseCacheController::BaseCacheController;

  void cpu_atomic(net::AtomicOp op, Addr a, std::uint64_t v1, std::uint64_t v2,
                  LoadCallback done) override;
  void on_message(const net::Message& msg) override;

protected:
  void drain_head() override;

private:
  void request_exclusive(Addr a, const mem::CacheLine* line, std::function<void()> retry);
  void grant_exclusive(mem::BlockAddr b, std::uint64_t acks);
  void perform_store(const mem::WriteBufferEntry& e);
  void do_atomic_local(net::AtomicOp op, Addr a, std::uint64_t v1, std::uint64_t v2,
                       LoadCallback done);
  void cpu_atomic_resume(net::AtomicOp op, Addr a, std::uint64_t v1, std::uint64_t v2,
                         LoadCallback done);
};

class WiHomeController final : public HomeController {
public:
  WiHomeController(NodeId id, ProtocolContext& ctx, mem::MemTimings timings)
      : HomeController(id, ctx, timings) {}

  void on_message(const net::Message& msg) override;

private:
  struct Active {
    net::Message req;
    bool awaiting_remote = false;  ///< forwarded to the owner
    bool wb_processed = false;     ///< a Writeback arrived mid-transaction
    bool waiting_wb = false;       ///< FwdNack'ed; restart when WB arrives
  };

  void begin(const net::Message& req);
  void dispatch(mem::BlockAddr b);
  void close(mem::BlockAddr b);
  void restart(mem::BlockAddr b);
  void serve_gets(mem::BlockAddr b, const net::Message& req);
  void serve_getx(mem::BlockAddr b, const net::Message& req);
  unsigned invalidate_sharers(mem::DirEntry& e, const net::Message& req);

  std::unordered_map<mem::BlockAddr, Active> active_;
  std::unordered_map<mem::BlockAddr, std::deque<net::Message>> queued_;
};

} // namespace ccsim::proto
