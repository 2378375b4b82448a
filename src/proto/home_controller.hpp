// Home-side controller of one node: one full-map directory slice, one
// memory bank and the coherence engine behind them.
//
// What every protocol's home does alike lives here once: sending, timing a
// reply to its memory access, and absorbing a writeback. on_message picks
// the WI or the update state machine by the block's mode
// (ProtocolContext::mode_of); the WI handlers live in wi_home.cpp, the
// update (PU/CU) handlers in update_home.cpp. PU and CU differ only by the
// mode: a PU home grants private mode to a sole writer, a CU home never
// does.
#pragma once

#include "mem/directory.hpp"
#include "mem/memory_module.hpp"
#include "proto/protocol.hpp"
#include "sim/slab.hpp"

#include <deque>
#include <unordered_map>

namespace ccsim::proto {

class HomeController {
public:
  HomeController(NodeId id, ProtocolContext& ctx, mem::MemTimings timings)
      : id_(id), ctx_(ctx), memory_(timings) {}
  HomeController(const HomeController&) = delete;
  HomeController& operator=(const HomeController&) = delete;

  void on_message(const net::Message& msg);

  [[nodiscard]] NodeId id() const noexcept { return id_; }
  [[nodiscard]] mem::MemoryModule& memory() noexcept { return memory_; }
  [[nodiscard]] mem::Directory& directory() noexcept { return dir_; }

private:
  // --- shared machinery (home_controller.cpp) ---------------------------

  void send(net::Message m) {
    m.src = id_;
    ctx_.net.send(m);
  }

  /// Send `m` at `ready`, when the memory bank has served the request. A
  /// reply carrying a block reads memory then, not now: a write absorbed
  /// in between must be reflected in the data (the requester is already
  /// in the sharer set, so later updates/invals assume it is). The reply
  /// waits in a pooled slot.
  void reply_at(Cycle ready, const net::Message& m);
  static void reply_thunk(void* self, std::uint64_t slot);

  /// Write the block a Writeback carries to memory and acknowledge it.
  void absorb_writeback(const net::Message& wb);

  // --- write invalidate (wi_home.cpp) -----------------------------------
  //
  // One transaction per block at a time (queued); dirty blocks are
  // forwarded DASH-style (home -> owner -> requester, with a SharedWB or
  // ExclDone closing message back to the home). Races between forwards and
  // evictions resolve with FwdNack + writeback replay.

  struct Active {
    net::Message req;
    bool awaiting_remote = false;  ///< forwarded to the owner
    bool wb_processed = false;     ///< a Writeback arrived mid-transaction
    bool waiting_wb = false;       ///< FwdNack'ed; restart when WB arrives
  };

  void wi_on_message(const net::Message& msg);
  void begin(const net::Message& req);
  void dispatch(mem::BlockAddr b);
  void close(mem::BlockAddr b);
  void restart(mem::BlockAddr b);
  void wi_serve_gets(mem::BlockAddr b, const net::Message& req);
  void serve_getx(mem::BlockAddr b, const net::Message& req);
  unsigned invalidate_sharers(mem::DirEntry& e, const net::Message& req);

  // --- pure / competitive update (update_home.cpp) ----------------------

  /// A block mid-recall: requests queue here until the owner gives the
  /// block back (RecallReply or its racing Writeback).
  struct Pending {
    std::deque<net::Message> queued;
    bool waiting_wb = false;  ///< owner evicted; waiting for its Writeback
  };

  void update_on_message(const net::Message& msg);
  void process(const net::Message& msg);
  void update_serve_gets(const net::Message& msg);
  void serve_update(const net::Message& msg);
  void serve_atomic(const net::Message& msg);
  void start_recall(mem::BlockAddr b, const net::Message& first);
  void replay(mem::BlockAddr b);
  void multicast_update(mem::BlockAddr b, Addr word_addr, std::uint64_t value,
                        std::size_t size, NodeId writer, unsigned& count);

  NodeId id_;
  ProtocolContext& ctx_;
  mem::MemoryModule memory_;
  mem::Directory dir_;
  sim::Slab<net::Message> replies_;  ///< replies waiting for their bank

  std::unordered_map<mem::BlockAddr, Active> active_;                    ///< WI
  std::unordered_map<mem::BlockAddr, std::deque<net::Message>> queued_;  ///< WI
  std::unordered_map<mem::BlockAddr, Pending> pending_;  ///< update recalls
};

} // namespace ccsim::proto
