// Coherence-protocol framework: the protocol and consistency enums, the
// per-block protocol mode, and the services every controller of one
// machine shares.
//
// Each node runs one CacheController (proto/cache_controller.hpp) and one
// HomeController (proto/home_controller.hpp). Both pick the WI or the
// update state machine per block, from ProtocolContext::mode_of: on a pure
// machine every block has the machine's protocol; on a Hybrid machine each
// block has the protocol its allocator domain names.
#pragma once

#include "mem/address.hpp"
#include "mem/shared_alloc.hpp"
#include "net/message.hpp"
#include "net/network.hpp"
#include "sim/event_queue.hpp"
#include "obs/trace.hpp"
#include "stats/counters.hpp"
#include "stats/miss_classifier.hpp"
#include "stats/update_classifier.hpp"

#include <cstdint>

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
  /// shared regions are tagged WI/PU/CU via Machine::bind_protocol, and
  /// each block runs the protocol its tag names (see mode_of).
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

/// Maps a block's allocator domain id to the protocol serving it on a
/// Hybrid machine. Domain 0 = `fallback` (the machine's hybrid_default);
/// domains 1..3 = WI/PU/CU.
[[nodiscard]] constexpr Protocol domain_protocol(std::uint8_t domain,
                                                 Protocol fallback) noexcept {
  switch (domain) {
    case 1: return Protocol::WI;
    case 2: return Protocol::PU;
    case 3: return Protocol::CU;
    default: return fallback;
  }
}

/// Domain id for binding a region to `p` (WI, PU or CU; see above).
[[nodiscard]] std::uint8_t domain_of_protocol(Protocol p);

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
  /// The machine's protocol: WI, PU, CU, or Hybrid.
  Protocol protocol = Protocol::WI;

  /// The protocol block `b` runs: WI, PU or CU, never Hybrid. A pure
  /// machine answers without an allocator lookup.
  [[nodiscard]] Protocol mode_of(mem::BlockAddr b) const {
    return protocol != Protocol::Hybrid
               ? protocol
               : domain_protocol(alloc.domain_of(b), hybrid_default);
  }
};

/// Point-in-time occupancy of a cache controller's queues, reported in
/// deadlock/watchdog diagnostics (see Machine::run).
struct CacheDebug {
  std::size_t wb_entries = 0;   ///< write-buffer occupancy
  std::size_t mshr = 0;         ///< outstanding block transactions
  std::int64_t pending_acks = 0;///< coherence acks a fence would wait for
  int outstanding = 0;          ///< granted-but-unacknowledged operations
};

/// True if `t` is addressed to the home (directory/memory) side of a node.
[[nodiscard]] bool is_home_bound(net::MsgType t) noexcept;

} // namespace ccsim::proto
