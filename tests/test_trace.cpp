// Structured trace facility: event formatting, ring order and bounds,
// machine integration, and deadlock reports carrying the trace tail.
#include "ccsim.hpp"

#include <gtest/gtest.h>

namespace {

using namespace ccsim;
using harness::DeadlockError;
using harness::Machine;
using harness::MachineConfig;
using proto::Protocol;

obs::TraceEvent msg_event(obs::EventKind kind, obs::TraceCat cat, Cycle t,
                          NodeId node, NodeId peer, net::MsgType type, Addr addr,
                          std::uint64_t payload = 0) {
  obs::TraceEvent e;
  e.cycle = t;
  e.cat = cat;
  e.kind = kind;
  e.node = node;
  e.peer = peer;
  e.msg = type;
  e.addr = addr;
  e.payload = payload;
  return e;
}

/// A controller reception at cycle `t`, one per cycle in the ring tests.
obs::TraceEvent recv_at(Cycle t) {
  return msg_event(obs::EventKind::MsgRecv, obs::TraceCat::Home, t, 1, 0,
                   net::MsgType::GetS, 0x40);
}

TEST(TraceLog, FormatsEachKind) {
  using obs::EventKind;
  using obs::TraceCat;
  obs::TraceLog t;
  t.event(msg_event(EventKind::MsgSend, TraceCat::Net, 40, 1, 3,
                    net::MsgType::GetS, 0x10000000));
  t.event(msg_event(EventKind::MsgRecv, TraceCat::Net, 41, 3, 1,
                    net::MsgType::GetS, 0x10000000));
  t.event(msg_event(EventKind::MsgRecv, TraceCat::Home, 42, 3, 1,
                    net::MsgType::GetS, 0x10000000));
  t.event(msg_event(EventKind::MsgRecv, TraceCat::Cache, 43, 1, 3,
                    net::MsgType::DataX, 0x10000008, 2));
  EXPECT_EQ(t.tail(4),
            "t=40 [net] node1 -> GetS addr=0x10000000 to 3\n"
            "t=41 [net] node3 <- GetS addr=0x10000000 from 1\n"
            "t=42 [home] home3 <- GetS addr=0x10000000 from 1\n"
            "t=43 [cache] cache1 <- DataX addr=0x10000008 from 3 pay=2\n");
  EXPECT_EQ(t.total_events(), 4u);
}

TEST(TraceLog, TailKeepsOrderAcrossRingWrap) {
  obs::TraceLog t;
  for (Cycle i = 0; i < 600; ++i) t.event(recv_at(i));
  EXPECT_EQ(t.total_events(), 600u);
  EXPECT_EQ(t.tail(2),
            "t=598 [home] home1 <- GetS addr=0x40 from 0\n"
            "t=599 [home] home1 <- GetS addr=0x40 from 0\n");
  // The ring holds the last kRingCapacity events, oldest first.
  const std::string all = t.tail(obs::TraceLog::kRingCapacity);
  const Cycle first = 600 - obs::TraceLog::kRingCapacity;
  std::size_t lines = 0;
  Cycle expect = first;
  for (std::size_t at = 0; at < all.size(); at = all.find('\n', at) + 1) {
    EXPECT_EQ(all.compare(at, 2, "t="), 0);
    EXPECT_EQ(std::stoull(all.substr(at + 2)), expect++);
    ++lines;
  }
  EXPECT_EQ(lines, obs::TraceLog::kRingCapacity);
}

TEST(TraceLog, TailClampsToStoredEvents) {
  obs::TraceLog t;
  EXPECT_EQ(t.tail(40), "");
  for (Cycle i = 0; i < 5; ++i) t.event(recv_at(i));
  EXPECT_EQ(t.tail(100), t.tail(5));
  EXPECT_EQ(t.tail(100).rfind("t=0 ", 0), 0u);
  EXPECT_EQ(t.tail(1), "t=4 [home] home1 <- GetS addr=0x40 from 0\n");
}

TEST(TraceMachine, DisabledByDefault) {
  Machine m(MachineConfig{});
  EXPECT_EQ(m.trace(), nullptr);
}

TEST(TraceMachine, CapturesProtocolEvents) {
  for (Protocol p : {Protocol::WI, Protocol::PU}) {
    MachineConfig cfg;
    cfg.protocol = p;
    cfg.nprocs = 2;
    cfg.trace = true;
    Machine m(cfg);
    const Addr a = m.alloc().allocate_on(1, 8);
    m.run({[&](cpu::Cpu& c) -> sim::Task {
      co_await c.store(a, 1);
      co_await c.fence();
      (void)co_await c.load(a);
    }});
    ASSERT_NE(m.trace(), nullptr);
    EXPECT_GT(m.trace()->total_events(), 0u);
    // Both sides of the protocol show up.
    const std::string all = m.trace()->tail(1000);
    EXPECT_NE(all.find("home1 <-"), std::string::npos) << proto::to_string(p);
    EXPECT_NE(all.find("cache0 <-"), std::string::npos) << proto::to_string(p);
  }
}

TEST(TraceMachine, DeadlockReportIncludesTraceAndStuckProcs) {
  MachineConfig cfg;
  cfg.nprocs = 2;
  cfg.trace = true;
  Machine m(cfg);
  const Addr a = m.alloc().allocate_on(0, 8);
  std::vector<Machine::Program> ps;
  ps.push_back([&](cpu::Cpu& c) -> sim::Task {
    // Waits forever: nobody ever writes 1.
    co_await c.spin_until(a, [](std::uint64_t v) { return v == 1; });
  });
  ps.push_back([](cpu::Cpu& c) -> sim::Task { co_await c.think(10); });
  try {
    m.run(ps);
    FAIL() << "expected a deadlock";
  } catch (const DeadlockError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("drained with programs waiting"), std::string::npos);
    EXPECT_NE(msg.find("stuck processors: 0"), std::string::npos);
    EXPECT_NE(msg.find("last trace events"), std::string::npos);
    EXPECT_NE(msg.find("GetS"), std::string::npos) << "spin's fetch should be traced";
  }
}

} // namespace
