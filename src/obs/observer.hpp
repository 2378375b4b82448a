// The one fan-out through which the protocol engines notify the two pure
// coherence observers: the invariant checker (obs/invariants.hpp) and the
// sharing tracker (obs/sharing.hpp). ProtocolContext::observer points here
// only when at least one of them is on, and each transition point makes one
// call. Hooks that carry data take the full word containing the address;
// each hook calls the checker first, then the tracker.
//
// An update applied at a PU/CU copy is the tracker's
// on_update_delivered(Applied) and the checker's on_local_write of the word
// image the copy now shows. It must not reach the tracker's on_local_write:
// that would mark the receiving node as a writer.
#pragma once

#include "obs/invariants.hpp"
#include "obs/sharing.hpp"

#include <cstdint>

namespace ccsim::obs {

struct Observers {
  using Delivery = SharingTracker::Delivery;

  InvariantChecker* checker = nullptr;  ///< null unless obs.check_invariants
  SharingTracker* sharing = nullptr;    ///< null unless obs.sharing

  [[nodiscard]] bool any() const noexcept { return checker || sharing; }

  /// A load or an atomic's read completed at `reader`.
  void on_read(NodeId reader, Addr a, std::uint64_t word) {
    if (checker) checker->on_read(reader, a, word);
    if (sharing) sharing->on_read(reader, a);
  }
  /// A write by `writer` reached its global-order point.
  void on_global_write(NodeId writer, Addr a, std::uint64_t word) {
    if (checker) checker->on_global_write(writer, a, word);
    if (sharing) sharing->on_global_write(writer, a);
  }
  /// A PU/CU write-through became visible in the writer's own copy.
  void on_local_write(NodeId writer, Addr a, std::uint64_t word) {
    if (checker) checker->on_local_write(writer, a, word);
    if (sharing) sharing->on_local_write(writer, a);
  }
  /// `node` installed a writable copy (WI Modified, PU PrivateDirty) of `b`.
  void on_writable(NodeId node, mem::BlockAddr b) {
    if (checker) checker->on_writable(node, b);
    if (sharing) sharing->on_writable(node, b);
  }
  /// Machine::poke initialised simulated memory before the run.
  void on_poke(Addr a, std::uint64_t word) {
    if (checker) checker->on_poke(a, word);
    if (sharing) sharing->on_poke(a);
  }
  /// The WI home sent `dst` an invalidation of `trigger`'s block for `writer`.
  void on_inval_sent(NodeId dst, Addr trigger, NodeId writer) {
    if (sharing) sharing->on_inval_sent(dst, trigger, writer);
  }
  /// An update of `a` by `writer` reached the PU/CU cache at `dst`. `word`
  /// is the word image the copy shows after an Applied delivery; it is
  /// unused for Stale and Dropped ones.
  void on_update_delivered(NodeId dst, Addr a, NodeId writer, Delivery d,
                           std::uint64_t word = 0) {
    if (checker && d == Delivery::Applied) checker->on_local_write(dst, a, word);
    if (sharing) sharing->on_update_delivered(dst, a, writer, d);
  }
  /// End of run, at quiescence: the checker's audit, then the tracker's
  /// closing of open write intervals.
  void finalize() {
    if (checker) checker->final_audit();
    if (sharing) sharing->finalize();
  }
};

} // namespace ccsim::obs
