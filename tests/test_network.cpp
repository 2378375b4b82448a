// Unit tests for the endpoint-contention wormhole network model.
#include "net/network.hpp"
#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

namespace {

using namespace ccsim;
using net::Message;
using net::MsgType;

struct Recorder final : net::MessageSink {
  struct Got {
    Cycle t;
    Message msg;
  };
  sim::EventQueue* q = nullptr;
  std::vector<Got> got;
  void deliver(const Message& m) override { got.push_back({q->now(), m}); }
};

struct NetFixture : ::testing::Test {
  sim::EventQueue q;
  stats::NetCounters counters;
  net::Network net{q, net::MeshTopology(8), {}, &counters};
  std::vector<Recorder> sinks{8};

  void SetUp() override {
    for (NodeId i = 0; i < 8; ++i) {
      sinks[i].q = &q;
      net.attach(i, sinks[i]);
    }
  }

  Message mk(NodeId src, NodeId dst, MsgType t = MsgType::GetS) {
    Message m;
    m.src = src;
    m.dst = dst;
    m.type = t;
    m.addr = mem::kSharedBase;
    return m;
  }
};

TEST_F(NetFixture, ControlMessageLatency) {
  // 16-byte header / 2-byte flits = 8 flits; 1 hop = 2 cycles.
  net.send(mk(0, 1));
  q.run();
  ASSERT_EQ(sinks[1].got.size(), 1u);
  // start 0, head arrives at 2, ejection takes 8 flits -> t = 10.
  EXPECT_EQ(sinks[1].got[0].t, 10u);
}

TEST_F(NetFixture, BlockMessageCarriesMoreFlits) {
  Message m = mk(0, 1, MsgType::DataS);
  m.has_block = true;
  net.send(m);
  q.run();
  // (16 + 64) / 2 = 40 flits + 2 cycles hop = 42.
  EXPECT_EQ(sinks[1].got[0].t, 42u);
}

TEST_F(NetFixture, DistanceAddsSwitchDelay) {
  net.send(mk(0, 3));  // 3 hops on the 4x2 mesh
  q.run();
  EXPECT_EQ(sinks[3].got[0].t, 3 * 2 + 8u);
}

TEST_F(NetFixture, LocalDeliveryBypassesNetwork) {
  net.send(mk(2, 2));
  q.run();
  EXPECT_EQ(sinks[2].got[0].t, 1u);  // local latency
  EXPECT_EQ(counters.messages, 0u);
  EXPECT_EQ(counters.local, 1u);
}

TEST_F(NetFixture, SourceInjectionSerializes) {
  net.send(mk(0, 1));
  net.send(mk(0, 2));
  q.run();
  // Second message's injection starts after the first's 8 flits.
  EXPECT_EQ(sinks[1].got[0].t, 10u);
  EXPECT_EQ(sinks[2].got[0].t, 8 + 2 * 2 + 8u);
}

TEST_F(NetFixture, DestinationEjectionSerializes) {
  net.send(mk(0, 1));
  net.send(mk(2, 1));
  q.run();
  ASSERT_EQ(sinks[1].got.size(), 2u);
  // Both head flits arrive at t=2; ejections serialize at 8 flits each.
  EXPECT_EQ(sinks[1].got[0].t, 10u);
  EXPECT_EQ(sinks[1].got[1].t, 18u);
}

TEST_F(NetFixture, SameSrcDstPairIsFifo) {
  for (int i = 0; i < 20; ++i) {
    Message m = mk(0, 5);
    m.payload = static_cast<std::uint64_t>(i);
    net.send(m);
  }
  q.run();
  ASSERT_EQ(sinks[5].got.size(), 20u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(sinks[5].got[i].msg.payload, (std::uint64_t)i);
}

TEST_F(NetFixture, CountersTrackVolume) {
  net.send(mk(0, 1));
  Message m = mk(1, 0, MsgType::DataS);
  m.has_block = true;
  net.send(m);
  q.run();
  EXPECT_EQ(counters.messages, 2u);
  EXPECT_EQ(counters.flits, 8u + 40u);
  EXPECT_EQ(counters.hops, 2u);
}

TEST_F(NetFixture, SinkMaySendWhileItsMessageIsPooled) {
  // Node 1's sink answers one message with a burst of sends large enough
  // to grow the in-flight pool by several chunks; the message it is
  // handling lives in that pool and must stay intact meanwhile.
  struct Burst final : net::MessageSink {
    net::Network* net = nullptr;
    Message seen;
    int handled = 0;
    void deliver(const Message& m) override {
      if (m.type != MsgType::GetX) return;
      ++handled;
      for (NodeId i = 0; i < 1000; ++i) {
        Message r;
        r.type = MsgType::DataS;
        r.has_block = true;
        r.src = 1;
        r.dst = static_cast<NodeId>(i % 8);
        r.payload = i;
        net->send(r);
      }
      seen = m;  // read after the sends
    }
  } burst;
  burst.net = &net;
  net.attach(1, burst);

  Message m = mk(0, 1, MsgType::GetX);
  m.payload = 0xfeed;
  m.payload2 = 0xbeef;
  m.requester = 6;
  m.has_block = true;
  m.block[0] = std::byte{0x5a};
  m.block[63] = std::byte{0xa5};
  net.send(m);
  q.run();

  ASSERT_EQ(burst.handled, 1);
  EXPECT_EQ(burst.seen.type, MsgType::GetX);
  EXPECT_EQ(burst.seen.src, 0u);
  EXPECT_EQ(burst.seen.dst, 1u);
  EXPECT_EQ(burst.seen.payload, 0xfeedu);
  EXPECT_EQ(burst.seen.payload2, 0xbeefu);
  EXPECT_EQ(burst.seen.requester, 6u);
  EXPECT_EQ(burst.seen.block[0], std::byte{0x5a});
  EXPECT_EQ(burst.seen.block[63], std::byte{0xa5});
  std::size_t replies = 0;
  for (NodeId i = 0; i < 8; ++i)
    if (i != 1) replies += sinks[i].got.size();
  EXPECT_EQ(replies, 1000u - 125u);  // node 1's own 125 went to `burst`
  EXPECT_EQ(net.in_flight(0), 0u);
}

/// Every delivery of a fixed mixed traffic pattern as (cycle, dst, payload).
std::vector<std::tuple<Cycle, NodeId, std::uint64_t>> deliveries(bool traced,
                                                                  Cycle jitter) {
  struct Log final : net::MessageSink {
    sim::EventQueue* q = nullptr;
    std::vector<std::tuple<Cycle, NodeId, std::uint64_t>>* out = nullptr;
    void deliver(const Message& m) override {
      out->emplace_back(q->now(), m.dst, m.payload);
    }
  };
  sim::EventQueue q;
  net::Network::Params params;
  params.jitter_max = jitter;
  params.jitter_seed = 7;
  net::Network net(q, net::MeshTopology(8), params);
  obs::TraceLog trace;
  if (traced) net.set_trace(&trace);
  std::vector<std::tuple<Cycle, NodeId, std::uint64_t>> out;
  std::vector<Log> logs(8);
  for (NodeId i = 0; i < 8; ++i) {
    logs[i].q = &q;
    logs[i].out = &out;
    net.attach(i, logs[i]);
  }
  // Local and remote, control and block messages, sent across cycles.
  for (std::uint64_t k = 0; k < 64; ++k) {
    q.schedule_at(k / 4, [&net, k] {
      Message m;
      m.type = k % 3 == 0 ? MsgType::DataS : MsgType::Update;
      m.has_block = k % 3 == 0;
      m.src = static_cast<NodeId>(k % 8);
      m.dst = static_cast<NodeId>((k * 5 + k / 8) % 8);
      m.addr = mem::kSharedBase;
      m.payload = k;
      net.send(m);
    });
  }
  q.run();
  if (traced) {
    EXPECT_EQ(trace.total_events(), 2u * 64u);  // one send + one recv each
  }
  return out;
}

TEST(NetworkTrace, TracingNeverMovesADelivery) {
  for (Cycle jitter : {Cycle{0}, Cycle{5}}) {
    const auto plain = deliveries(false, jitter);
    ASSERT_EQ(plain.size(), 64u);
    EXPECT_EQ(deliveries(true, jitter), plain) << "jitter " << jitter;
  }
}

TEST(NetworkSizes, WireBytesPerType) {
  Message m;
  m.type = MsgType::GetS;
  EXPECT_EQ(m.wire_bytes(), 16u);
  m.type = MsgType::UpdateReq;
  EXPECT_EQ(m.wire_bytes(), 24u);
  m.type = MsgType::Update;
  EXPECT_EQ(m.wire_bytes(), 24u);
  m.type = MsgType::AtomicReply;
  EXPECT_EQ(m.wire_bytes(), 24u);
  m.type = MsgType::DataS;
  m.has_block = true;
  EXPECT_EQ(m.wire_bytes(), 80u);
}

} // namespace
