// One node of the simulated multiprocessor: cache controller + home
// controller behind a single network sink, which traces each receipt once.
#pragma once

#include "obs/host_perf.hpp"
#include "proto/protocol.hpp"

#include <memory>

namespace ccsim::proto {

class Node final : public net::MessageSink {
public:
  /// `host` (may be null) receives this node's message-handling host time.
  Node(Protocol p, NodeId id, ProtocolContext& ctx, std::size_t cache_bytes,
       std::size_t wb_entries, mem::MemTimings timings,
       obs::HostPerfCollector* host)
      : id_(id),
        ctx_(ctx),
        cache_ctrl_(make_cache_controller(p, id, ctx, cache_bytes, wb_entries)),
        home_ctrl_(make_home_controller(p, id, ctx, timings)),
        host_(host) {}

  void deliver(const net::Message& msg) override {
    // Host telemetry: everything below is protocol-handler work.
    obs::ScopedHostCat t(host_, obs::HostCat::Protocol);
    const bool home = is_home_bound(msg.type);
    if (ctx_.trace)
      ctx_.trace->event(obs::recv_event(home ? obs::TraceCat::Home : obs::TraceCat::Cache,
                                        ctx_.q.now(), id_, msg));
    if (home)
      home_ctrl_->on_message(msg);
    else
      cache_ctrl_->on_message(msg);
  }

  [[nodiscard]] CacheController& cache_ctrl() noexcept { return *cache_ctrl_; }
  [[nodiscard]] HomeController& home_ctrl() noexcept { return *home_ctrl_; }

private:
  NodeId id_;
  ProtocolContext& ctx_;
  std::unique_ptr<CacheController> cache_ctrl_;
  std::unique_ptr<HomeController> home_ctrl_;
  obs::HostPerfCollector* host_;  ///< null unless host metrics are on
};

} // namespace ccsim::proto
