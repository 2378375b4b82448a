// Coherence-protocol framework: the interfaces the CPU model and the node
// wiring program against, plus the factory selecting WI / PU / CU.
#pragma once

#include "mem/address.hpp"
#include "mem/cache.hpp"
#include "mem/directory.hpp"
#include "mem/memory_module.hpp"
#include "mem/shared_alloc.hpp"
#include "mem/write_buffer.hpp"
#include "net/message.hpp"
#include "net/network.hpp"
#include "sim/event_queue.hpp"
#include "obs/trace.hpp"
#include "stats/counters.hpp"
#include "stats/miss_classifier.hpp"
#include "stats/update_classifier.hpp"

#include <cstdint>
#include <functional>
#include <memory>

namespace ccsim::obs {
class HotBlockTable;
struct Observers;
}

namespace ccsim::proto {

/// Which coherence protocol a machine runs (paper, sections 1 and 3.1).
enum class Protocol : std::uint8_t {
  WI,  ///< write invalidate (DASH-like, release consistent)
  PU,  ///< pure update (write-through + update multicast)
  CU,  ///< competitive update (PU + per-block counters, threshold 4)
  /// Per-region protocol binding on one machine (the paper's
  /// programmable-protocol-processor scenario, FLASH/Typhoon style):
  /// shared regions are tagged WI/PU/CU via Machine::bind_protocol and
  /// each node runs all three engines side by side.
  Hybrid,
};

[[nodiscard]] constexpr std::string_view to_string(Protocol p) noexcept {
  switch (p) {
    case Protocol::WI: return "WI";
    case Protocol::PU: return "PU";
    case Protocol::CU: return "CU";
    case Protocol::Hybrid: return "Hybrid";
  }
  return "?";
}

/// Memory consistency model. The paper's machine is release consistent
/// (writes stall only at releases); sequential consistency stalls every
/// shared store until it is globally performed -- provided as an ablation
/// of how much the constructs' performance depends on RC.
enum class Consistency : std::uint8_t { Release, Sequential };

/// Services shared by every controller of one simulated machine.
struct ProtocolContext {
  sim::EventQueue& q;
  net::Network& net;
  mem::SharedAllocator& alloc;
  stats::Counters& counters;
  stats::MissClassifier& misses;
  stats::UpdateClassifier& updates;
  unsigned nprocs;
  unsigned cu_threshold = 4;  ///< competitive-update invalidation threshold
  obs::TraceLog* trace = nullptr;  ///< optional structured event trace
  obs::HotBlockTable* hot = nullptr;  ///< optional per-block attribution
  /// Optional pure coherence observers (obs/observer.hpp): the invariant
  /// checker and/or the sharing tracker behind one fan-out. Null unless at
  /// least one is on; each transition point makes one call through it.
  obs::Observers* observer = nullptr;
  Consistency consistency = Consistency::Release;
  /// Hybrid machines: protocol for blocks whose domain id is 0.
  Protocol hybrid_default = Protocol::WI;
};

/// Point-in-time occupancy of a cache controller's queues, reported in
/// deadlock/watchdog diagnostics (see Machine::run).
struct CacheDebug {
  std::size_t wb_entries = 0;   ///< write-buffer occupancy
  std::size_t mshr = 0;         ///< outstanding block transactions
  std::int64_t pending_acks = 0;///< coherence acks a fence would wait for
  int outstanding = 0;          ///< granted-but-unacknowledged operations
};

/// Processor-side controller: cache + write buffer + protocol engine.
///
/// Completion callbacks fire when the operation completes from the
/// processor's point of view (loads: data available; stores: accepted by
/// the write buffer; atomics: old value returned; fences: all prior writes
/// globally performed).
class CacheController {
public:
  using LoadCallback = std::function<void(std::uint64_t)>;
  using DoneCallback = std::function<void()>;

  explicit CacheController(NodeId id, ProtocolContext& ctx, std::size_t cache_bytes,
                           std::size_t wb_entries)
      : id_(id), ctx_(ctx), cache_(cache_bytes), wb_(wb_entries) {}
  virtual ~CacheController() = default;

  virtual void cpu_load(Addr a, std::size_t size, LoadCallback done) = 0;
  virtual void cpu_store(Addr a, std::size_t size, std::uint64_t v, DoneCallback done) = 0;
  virtual void cpu_atomic(net::AtomicOp op, Addr a, std::uint64_t v1, std::uint64_t v2,
                          LoadCallback done) = 0;
  /// Release fence: wait for the write buffer to drain and all coherence
  /// acknowledgements of prior writes to arrive.
  virtual void cpu_fence(DoneCallback done) = 0;
  /// User-level block flush (PowerPC-604 style): drop `block_of(a)` from
  /// this cache, writing it back if dirty.
  virtual void cpu_flush(Addr a, DoneCallback done) = 0;

  virtual void on_message(const net::Message& msg) = 0;

  [[nodiscard]] NodeId id() const noexcept { return id_; }
  [[nodiscard]] mem::DataCache& cache() noexcept { return cache_; }
  /// The cache that holds (or would hold) `b` -- hybrid controllers
  /// dispatch to the owning protocol's cache; plain ones return cache().
  [[nodiscard]] virtual mem::DataCache& cache_for(mem::BlockAddr) noexcept {
    return cache_;
  }
  [[nodiscard]] const mem::WriteBuffer& write_buffer() const noexcept { return wb_; }

  /// Queue occupancy snapshot for watchdog/deadlock diagnostics.
  [[nodiscard]] virtual CacheDebug debug_state() const {
    return {wb_.size(), 0, 0, 0};
  }

protected:
  NodeId id_;
  ProtocolContext& ctx_;
  mem::DataCache cache_;
  mem::WriteBuffer wb_;
};

/// Home-side controller: directory + memory bank + protocol engine. Owns
/// what every protocol's home does alike: sending, timing a reply to its
/// memory access, and absorbing a writeback.
class HomeController {
public:
  HomeController(NodeId id, ProtocolContext& ctx, mem::MemTimings timings)
      : id_(id), ctx_(ctx), memory_(timings) {}
  virtual ~HomeController() = default;

  virtual void on_message(const net::Message& msg) = 0;

  [[nodiscard]] NodeId id() const noexcept { return id_; }
  [[nodiscard]] mem::MemoryModule& memory() noexcept { return memory_; }
  [[nodiscard]] mem::Directory& directory() noexcept { return dir_; }
  /// Hybrid dispatch points (plain homes return their own members).
  [[nodiscard]] virtual mem::MemoryModule& memory_for(mem::BlockAddr) noexcept {
    return memory_;
  }
  [[nodiscard]] virtual mem::Directory& directory_for(mem::BlockAddr) noexcept {
    return dir_;
  }

protected:
  void send(net::Message m) {
    m.src = id_;
    ctx_.net.send(m);
  }

  /// Send `m` at `ready`, when the memory bank has served the request. A
  /// reply carrying a block reads memory then, not now: a write absorbed
  /// in between must be reflected in the data (the requester is already
  /// in the sharer set, so later updates/invals assume it is).
  void reply_at(Cycle ready, net::Message m);

  /// Write the block a Writeback carries to memory and acknowledge it.
  void absorb_writeback(const net::Message& wb);

  NodeId id_;
  ProtocolContext& ctx_;
  mem::MemoryModule memory_;
  mem::Directory dir_;
};

/// True if `t` is addressed to the home (directory/memory) side of a node.
[[nodiscard]] bool is_home_bound(net::MsgType t) noexcept;

std::unique_ptr<CacheController> make_cache_controller(Protocol p, NodeId id,
                                                       ProtocolContext& ctx,
                                                       std::size_t cache_bytes,
                                                       std::size_t wb_entries);
std::unique_ptr<HomeController> make_home_controller(Protocol p, NodeId id,
                                                     ProtocolContext& ctx,
                                                     mem::MemTimings timings);

} // namespace ccsim::proto
