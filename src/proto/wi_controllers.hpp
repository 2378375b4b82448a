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
#include <unordered_map>
#include <vector>

namespace ccsim::proto {

class WiCacheController final : public BaseCacheController {
public:
  using BaseCacheController::BaseCacheController;

  void cpu_atomic(net::AtomicOp op, Addr a, std::uint64_t v1, std::uint64_t v2,
                  LoadCallback done) override;
  void cpu_flush(Addr a, DoneCallback done) override;
  void on_message(const net::Message& msg) override;

protected:
  void handle_load_miss(Addr a, std::size_t size, LoadCallback done) override;
  void drain_head() override;
  [[nodiscard]] std::size_t mshr_count() const override { return txns_.size(); }

private:
  struct LoadWaiter {
    Addr addr;
    std::size_t size;
    LoadCallback done;
  };
  /// One outstanding block transaction (GetS / GetX / Upgrade).
  struct Txn {
    bool want_exclusive = false;
    bool upgrade = false;         ///< sent Upgrade (line was Shared)
    bool inval_on_fill = false;   ///< an Inval overtook the fill
    Addr inval_trigger = 0;
    std::vector<LoadWaiter> loads;
    std::vector<std::function<void()>> retries;  ///< drain / atomic resume
  };

  void fill(mem::BlockAddr b, const std::array<std::byte, mem::kBlockSize>& data,
            mem::LineState state);
  void complete_txn(mem::BlockAddr b);
  void invalidate_line(mem::CacheLine& l, Addr trigger);
  void evict_for(mem::BlockAddr incoming);
  void perform_store(const mem::WriteBufferEntry& e);
  void do_atomic_local(net::AtomicOp op, Addr a, std::uint64_t v1, std::uint64_t v2,
                       LoadCallback done);
  void cpu_atomic_resume(net::AtomicOp op, Addr a, std::uint64_t v1, std::uint64_t v2,
                         LoadCallback done);

  std::unordered_map<mem::BlockAddr, Txn> txns_;
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
  void send_from(net::Message m) {
    m.src = id_;
    ctx_.net.send(m);
  }

  std::unordered_map<mem::BlockAddr, Active> active_;
  std::unordered_map<mem::BlockAddr, std::deque<net::Message>> queued_;
};

} // namespace ccsim::proto
