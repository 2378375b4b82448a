// Standalone replay of a cell's recorded network traffic.
//
// The trace gives each remote message's injection start (after jitter and
// source-port contention), its flit count and its delivery; local messages
// carry their send cycle and arrival. Network::send needs the cycle at
// which the protocol called it, so the replay reconstructs that cycle:
//   - local send: the recorded cycle is the send cycle;
//   - remote send whose start lies past the source port's previous claim:
//     the port was free, so start = send cycle + this send's jitter draw;
//   - remote send that started exactly when the port freed: any cycle
//     between the last known simulation time and start - jitter gives the
//     same start, so the replay uses the last known time.
// The last known time advances with every delivery (a MsgRecv is logged at
// its delivery event) and every reconstructed send, so the replayed send
// cycles never decrease and the sends reach the network in recorded order,
// drawing the same jitter sequence. Every delivery cycle must then match.
#include "bench.hpp"

#include "net/topology.hpp"
#include "sim/rng.hpp"

#include <algorithm>
#include <limits>
#include <unordered_map>

namespace hostbench {
namespace {

constexpr Cycle kNever = std::numeric_limits<Cycle>::max();

struct Send {
  Cycle at = 0;             ///< reconstructed Network::send cycle
  Cycle deliver = kNever;   ///< recorded delivery cycle
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  net::MsgType type{};
  bool has_block = false;
};

net::Message make_message(const Send& s, std::size_t index) {
  net::Message m;
  m.type = s.type;
  m.src = s.src;
  m.dst = s.dst;
  m.has_block = s.has_block;
  m.payload2 = index;  // the network never reads it: identifies the delivery
  return m;
}

Cycle flits_of(net::MsgType type, bool has_block, std::size_t flit_bytes) {
  net::Message m;
  m.type = type;
  m.has_block = has_block;
  return static_cast<Cycle>((m.wire_bytes() + flit_bytes - 1) / flit_bytes);
}

/// Records each delivery's cycle, indexed by the message's payload2.
class DeliveryLog : public net::MessageSink {
public:
  DeliveryLog(const sim::EventQueue& q, std::size_t n) : q_(q), at_(n, kNever) {}
  void deliver(const net::Message& msg) override { at_[msg.payload2] = q_.now(); }
  [[nodiscard]] const std::vector<Cycle>& at() const noexcept { return at_; }

private:
  const sim::EventQueue& q_;
  std::vector<Cycle> at_;
};

std::string schedule(const std::vector<NetRecord>& records, unsigned nprocs,
                     const net::Network::Params& params, std::vector<Send>& sends) {
  std::unordered_map<std::uint64_t, std::size_t> by_flow;
  std::vector<Cycle> inject_free(nprocs, 0);
  sim::Rng jitter_rng(params.jitter_seed);
  Cycle known = 0;  // latest simulation time the trace proves has passed
  for (const NetRecord& r : records) {
    if (r.src >= nprocs || r.dst >= nprocs)
      return "record names a node outside the machine";
    if (!r.send) {
      const auto it = by_flow.find(r.flow);
      if (it == by_flow.end()) return "delivery without a recorded send";
      sends[it->second].deliver = r.cycle + r.dur;
      known = std::max(known, r.cycle + r.dur);
      continue;
    }
    const Cycle jitter =
        params.jitter_max == 0 ? 0 : jitter_rng.below(params.jitter_max + 1);
    Send s;
    s.src = r.src;
    s.dst = r.dst;
    s.type = r.type;
    if (r.src == r.dst) {
      s.at = r.cycle;
    } else {
      if (r.dur == flits_of(r.type, true, params.flit_bytes))
        s.has_block = true;
      else if (r.dur != flits_of(r.type, false, params.flit_bytes))
        return "recorded flit count fits neither a control nor a block message";
      const bool port_was_free = r.cycle > inject_free[r.src];
      s.at = port_was_free && r.cycle >= jitter ? r.cycle - jitter : known;
      inject_free[r.src] = r.cycle + r.dur;
    }
    s.at = std::max(s.at, known);
    known = s.at;
    if (!by_flow.emplace(r.flow, sends.size()).second) return "duplicate flow id";
    sends.push_back(s);
  }
  for (const Send& s : sends)
    if (s.deliver == kNever) return "a recorded send was never delivered";
  return "";
}

std::uint64_t elapsed_ns(Clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count());
}

std::string compare_counts(const stats::NetCounters& got, const stats::NetCounters& want) {
  if (got.by_type != want.by_type) return "per-type message counts differ";
  if (got.messages != want.messages || got.local != want.local)
    return "message counts differ";
  if (got.flits != want.flits || got.hops != want.hops) return "flit or hop counts differ";
  return "";
}

} // namespace

void NetRecorder::on_event(const obs::TraceEvent& e) {
  ++events_;
  if (e.cat != obs::TraceCat::Net || !e.has_msg) return;
  NetRecord r;
  r.cycle = e.cycle;
  r.dur = e.dur;
  r.flow = e.flow;
  r.type = e.msg;
  if (e.kind == obs::EventKind::MsgSend) {
    r.send = true;
    r.src = e.node;
    r.dst = e.peer;
  } else if (e.kind == obs::EventKind::MsgRecv) {
    r.src = e.peer;
    r.dst = e.node;
  } else {
    return;
  }
  records_.push_back(r);
}

ReplayReport replay(const std::vector<NetRecord>& records, unsigned nprocs,
                    const net::Network::Params& params, const stats::NetCounters& expect,
                    unsigned repeats) {
  ReplayReport rep;
  std::vector<Send> sends;
  rep.error = schedule(records, nprocs, params, sends);
  if (!rep.error.empty()) return rep;
  rep.messages = sends.size();
  for (const Send& s : sends) {
    if (s.src == s.dst) continue;
    ++rep.remote_messages;
    if (s.has_block) ++rep.block_messages;
  }
  rep.queue_events = 2 * sends.size();
  rep.net_ns = rep.queue_ns = std::numeric_limits<std::uint64_t>::max();

  for (unsigned i = 0; i < std::max(repeats, 1u); ++i) {
    {  // EventQueue + Network
      sim::EventQueue q;
      stats::NetCounters counters;
      net::Network network(q, net::MeshTopology(nprocs), params, &counters);
      DeliveryLog log(q, sends.size());
      for (NodeId n = 0; n < nprocs; ++n) network.attach(n, log);
      const Clock::time_point t0 = Clock::now();
      for (std::size_t k = 0; k < sends.size(); ++k)
        q.schedule_at(sends[k].at,
                      [&network, &sends, k] { network.send(make_message(sends[k], k)); });
      q.run();
      rep.net_ns = std::min(rep.net_ns, elapsed_ns(t0));
      if (i == 0) {
        for (std::size_t k = 0; k < sends.size(); ++k) {
          if (log.at()[k] != sends[k].deliver) {
            rep.error = "message " + std::to_string(k) + " delivered at cycle " +
                        std::to_string(log.at()[k]) + ", recorded " +
                        std::to_string(sends[k].deliver);
            return rep;
          }
        }
        rep.error = compare_counts(counters, expect);
        if (!rep.error.empty()) return rep;
      }
    }
    {  // EventQueue only: the same send and delivery events, no routing
      sim::EventQueue q;
      DeliveryLog log(q, sends.size());
      const Clock::time_point t0 = Clock::now();
      for (std::size_t k = 0; k < sends.size(); ++k)
        q.schedule_at(sends[k].at, [&q, &log, &sends, k] {
          const net::Message m = make_message(sends[k], k);
          q.schedule_at(sends[k].deliver, [&log, m] { log.deliver(m); });
        });
      q.run();
      rep.queue_ns = std::min(rep.queue_ns, elapsed_ns(t0));
    }
  }
  return rep;
}

} // namespace hostbench
