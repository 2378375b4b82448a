// Structured trace facility: ring buffer behavior, category masking,
// machine integration, and deadlock reports carrying the trace tail.
#include "ccsim.hpp"

#include <gtest/gtest.h>

namespace {

using namespace ccsim;
using harness::DeadlockError;
using harness::Machine;
using harness::MachineConfig;
using proto::Protocol;

TEST(TraceLog, RecordsAndFormats) {
  obs::TraceLog t;
  t.log(obs::TraceCat::Cache, 42, "cache%u <- %s", 3u, "GetS");
  ASSERT_EQ(t.recent().size(), 1u);
  EXPECT_EQ(t.recent()[0], "t=42 [cache] cache3 <- GetS");
  EXPECT_EQ(t.total_events(), 1u);
}

TEST(TraceLog, RingBounded) {
  obs::TraceLog t(static_cast<unsigned>(obs::TraceCat::All), 8);
  for (int i = 0; i < 100; ++i) t.log(obs::TraceCat::Home, i, "ev%d", i);
  EXPECT_EQ(t.recent().size(), 8u);
  EXPECT_EQ(t.total_events(), 100u);
  EXPECT_EQ(t.recent().back(), "t=99 [home] ev99");
  EXPECT_EQ(t.recent().front(), "t=92 [home] ev92");
}

TEST(TraceLog, CategoryMasking) {
  obs::TraceLog t(static_cast<unsigned>(obs::TraceCat::Home));
  t.log(obs::TraceCat::Cache, 1, "hidden");
  t.log(obs::TraceCat::Home, 2, "visible");
  ASSERT_EQ(t.recent().size(), 1u);
  EXPECT_EQ(t.recent()[0], "t=2 [home] visible");
  // Masked events are suppressed from the ring but still counted.
  EXPECT_EQ(t.total_events(), 2u);
  EXPECT_TRUE(t.on(obs::TraceCat::Home));
  EXPECT_FALSE(t.on(obs::TraceCat::Cache));
}

TEST(TraceLog, TailJoinsLastN) {
  obs::TraceLog t;
  for (int i = 0; i < 5; ++i) t.log(obs::TraceCat::Cpu, i, "e%d", i);
  EXPECT_EQ(t.tail(2), "t=3 [cpu] e3\nt=4 [cpu] e4\n");
  EXPECT_EQ(t.tail(100), t.tail(5));
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
