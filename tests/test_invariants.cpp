// Invariant checker and watchdog tests: injected violations must be caught
// with block/node/cycle diagnostics, injected hangs must trip the watchdog,
// and the checker must be a pure observer (identical cycle counts on/off).
#include "obs/invariants.hpp"

#include "harness/machine.hpp"
#include "harness/stress.hpp"
#include "harness/workloads.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

namespace {

using namespace ccsim;
using harness::DeadlockError;
using harness::Machine;
using harness::MachineConfig;
using obs::InvariantViolation;

MachineConfig checked(proto::Protocol p, unsigned nprocs = 2) {
  MachineConfig cfg;
  cfg.protocol = p;
  cfg.nprocs = nprocs;
  cfg.obs.check_invariants = true;
  return cfg;
}

TEST(InvariantChecker, CleanRunsPassOnAllProtocols) {
  for (proto::Protocol p :
       {proto::Protocol::WI, proto::Protocol::PU, proto::Protocol::CU}) {
    Machine m(checked(p));
    const Addr a = m.alloc().allocate_on(0, 8, "word");
    m.run_all([&](cpu::Cpu& c) -> sim::Task {
      co_await c.store(a + 0, 1 + c.id());  // both write the same word: races
      co_await c.fence();                   // are legal, corruption is not
      (void)co_await c.load(a);
    });
    EXPECT_GT(m.invariant_checks(), 0u) << proto::to_string(p);
  }
}

TEST(InvariantChecker, InjectedSecondWritableCopyFailsTheAudit) {
  Machine m(checked(proto::Protocol::WI));
  const Addr a = m.alloc().allocate_on(0, 8, "victim");
  const mem::BlockAddr b = mem::block_of(a);
  try {
    m.run({[&](cpu::Cpu& c) -> sim::Task {
      co_await c.store(a, 7);
      co_await c.fence();  // block is now Modified in cache 0
      // Inject the violation: forge a second writable copy in cache 1.
      mem::CacheLine& l = m.node(1).cache_ctrl().cache().set_for(b);
      l.block = b;
      l.state = mem::LineState::Modified;
    }});
    FAIL() << "expected an InvariantViolation";
  } catch (const InvariantViolation& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("victim"), std::string::npos) << "symbolic name missing";
    EXPECT_NE(msg.find("Exclusive"), std::string::npos) << msg;
    EXPECT_NE(msg.find("1:Modified"), std::string::npos)
        << "forged holder missing from the cache listing:\n"
        << msg;
    // The report ends with the block's last trace events, formatted only
    // now: at most 12 lines, every one about an address in the victim.
    const std::string header = "  recent events for block:\n";
    const std::size_t at = msg.find(header);
    ASSERT_NE(at, std::string::npos) << msg;
    std::istringstream lines(msg.substr(at + header.size()));
    std::size_t events = 0;
    for (std::string line; std::getline(lines, line);) {
      ASSERT_EQ(line.rfind("    t=", 0), 0u) << line;
      const std::size_t addr = line.find(" addr=0x");
      ASSERT_NE(addr, std::string::npos) << line;
      EXPECT_EQ(mem::block_of(std::stoull(line.substr(addr + 8), nullptr, 16)), b)
          << line;
      ++events;
    }
    EXPECT_GE(events, 1u);
    EXPECT_LE(events, 12u);
    std::ostringstream getx;
    getx << "home0 <- GetX addr=0x" << std::hex << a << " from 0";
    EXPECT_NE(msg.find(getx.str(), at), std::string::npos) << msg;
  }
}

TEST(InvariantChecker, InjectedLostOwnerCopyFailsTheAudit) {
  // The data audit trusts the owner's cache for Exclusive blocks; this is
  // safe only because the directory audit runs first and rejects an owner
  // that no longer holds its Modified line.
  Machine m(checked(proto::Protocol::WI));
  const Addr a = m.alloc().allocate_on(0, 8, "victim");
  const mem::BlockAddr b = mem::block_of(a);
  try {
    m.run({[&](cpu::Cpu& c) -> sim::Task {
      co_await c.store(a, 7);
      co_await c.fence();  // block is now Modified in cache 0
      // Inject the violation: the owner silently loses its dirty copy.
      if (mem::CacheLine* l = m.node(0).cache_ctrl().cache().find(b))
        l->state = mem::LineState::Invalid;
    }});
    FAIL() << "expected an InvariantViolation";
  } catch (const InvariantViolation& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("victim"), std::string::npos) << "symbolic name missing";
    EXPECT_NE(msg.find("not held Modified by exactly its owner"), std::string::npos)
        << msg;
  }
}

TEST(InvariantChecker, InjectedSecondWritableCopyIsCaughtOnTheFly) {
  // Forge the extra writable copy while the run is still going: the next
  // upgrade's on_writable notification must trip the continuous SWMR check
  // (not just the final audit).
  Machine m(checked(proto::Protocol::WI));
  const Addr a = m.alloc().allocate_on(0, 8, "victim");
  const Addr other = m.alloc().allocate_on(1, 8, "other");
  const mem::BlockAddr b = mem::block_of(a);
  EXPECT_THROW(
      m.run({[&](cpu::Cpu& c) -> sim::Task {
        co_await c.store(other, 1);
        co_await c.fence();
        mem::CacheLine& l = m.node(1).cache_ctrl().cache().set_for(b);
        l.block = b;
        l.state = mem::LineState::Modified;
        co_await c.store(a, 7);  // cache 0 acquires a writable copy of b
        co_await c.fence();
      }}),
      InvariantViolation);
}

TEST(InvariantChecker, CorruptedCacheDataFailsTheAudit) {
  Machine m(checked(proto::Protocol::WI));
  const Addr a = m.alloc().allocate_on(0, 8, "victim");
  try {
    m.run({[&](cpu::Cpu& c) -> sim::Task {
      co_await c.store(a, 7);
      co_await c.fence();
      // Flip the dirty copy behind the protocol's back: the final audit
      // compares it against shadow memory (which remembers 7).
      m.node(0).cache_ctrl().cache().write(a, 8, 99);
    }});
    FAIL() << "expected an InvariantViolation";
  } catch (const InvariantViolation& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("data mismatch at quiescence"), std::string::npos) << msg;
    EXPECT_NE(msg.find("victim"), std::string::npos);
    EXPECT_NE(msg.find("0x63"), std::string::npos) << msg;  // the corrupted 99
    EXPECT_NE(msg.find("0x7"), std::string::npos) << msg;   // the real value
  }
}

TEST(InvariantChecker, CorruptedValueIsCaughtAtTheReadingProcessor) {
  // The same corruption, but observed by a later load: the read-membership
  // check fires at the reader, mid-run.
  Machine m(checked(proto::Protocol::WI));
  const Addr a = m.alloc().allocate_on(0, 8, "victim");
  try {
    m.run({[&](cpu::Cpu& c) -> sim::Task {
      co_await c.store(a, 7);
      co_await c.fence();
      m.node(0).cache_ctrl().cache().write(a, 8, 99);
      (void)co_await c.load(a);  // hits the corrupted line
    }});
    FAIL() << "expected an InvariantViolation";
  } catch (const InvariantViolation& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("no write produced"), std::string::npos) << msg;
    EXPECT_NE(msg.find("by node 0"), std::string::npos) << msg;
  }
}

TEST(InvariantChecker, ObserverDoesNotChangeSimulatedCycles) {
  for (proto::Protocol p :
       {proto::Protocol::WI, proto::Protocol::PU, proto::Protocol::CU}) {
    harness::LockParams lp;
    lp.total_acquires = 64;
    MachineConfig plain;
    plain.protocol = p;
    plain.nprocs = 4;
    MachineConfig check = plain;
    check.obs.check_invariants = true;
    const auto base =
        harness::run_lock_experiment(plain, harness::LockKind::Ticket, lp);
    const auto audited =
        harness::run_lock_experiment(check, harness::LockKind::Ticket, lp);
    EXPECT_EQ(base.cycles, audited.cycles) << proto::to_string(p);
    EXPECT_EQ(base.invariant_checks, 0u);
    EXPECT_GT(audited.invariant_checks, 0u);
  }
}

TEST(Watchdog, LostWakeupDrainsTheQueueAndThrowsDeadlockError) {
  MachineConfig cfg;
  cfg.nprocs = 2;
  cfg.trace = true;
  Machine m(cfg);
  const Addr a = m.alloc().allocate_on(0, 8, "flag");
  std::vector<Machine::Program> ps;
  ps.push_back([&](cpu::Cpu& c) -> sim::Task {
    co_await c.spin_until(a, [](std::uint64_t v) { return v == 1; });
  });
  try {
    m.run(ps);
    FAIL() << "expected a DeadlockError";
  } catch (const DeadlockError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("drained with programs waiting"), std::string::npos);
    EXPECT_NE(msg.find("stuck processors: 0"), std::string::npos) << msg;
    EXPECT_NE(msg.find("node occupancy"), std::string::npos) << msg;
    EXPECT_NE(msg.find("last trace events"), std::string::npos) << msg;
  }
}

TEST(Watchdog, LivelockTripsTheStallBound) {
  // The queue never drains (processor 1 thinks forever) but no memory
  // operation completes after the spin's first fill: only the stall-bound
  // watchdog can catch this.
  MachineConfig cfg;
  cfg.nprocs = 2;
  cfg.watchdog_stall_cycles = 5000;
  Machine m(cfg);
  const Addr a = m.alloc().allocate_on(0, 8, "flag");
  std::vector<Machine::Program> ps;
  ps.push_back([&](cpu::Cpu& c) -> sim::Task {
    co_await c.spin_until(a, [](std::uint64_t v) { return v == 1; });
  });
  ps.push_back([](cpu::Cpu& c) -> sim::Task {
    for (;;) co_await c.think(50);
  });
  try {
    m.run(ps);
    FAIL() << "expected a DeadlockError";
  } catch (const DeadlockError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("watchdog"), std::string::npos) << msg;
    EXPECT_NE(msg.find("cycle"), std::string::npos) << msg;
  }
}

TEST(Watchdog, DoesNotFireOnAHealthyRun) {
  MachineConfig cfg;
  cfg.nprocs = 4;
  cfg.watchdog_stall_cycles = 100000;
  Machine m(cfg);
  const Addr a = m.alloc().allocate_on(0, 8);
  EXPECT_NO_THROW(m.run_all([&](cpu::Cpu& c) -> sim::Task {
    for (int i = 0; i < 50; ++i) {
      co_await c.fetch_add(a, 1);
      co_await c.think(200);
    }
  }));
  EXPECT_EQ(m.peek(a), 4u * 50u);
}

TEST(Watchdog, StallBoundDoesNotChangeSimulatedCycles) {
  harness::LockParams lp;
  lp.total_acquires = 64;
  MachineConfig plain;
  plain.nprocs = 4;
  MachineConfig watched = plain;
  watched.watchdog_stall_cycles = 1'000'000;
  const auto a = harness::run_lock_experiment(plain, harness::LockKind::Ticket, lp);
  const auto b = harness::run_lock_experiment(watched, harness::LockKind::Ticket, lp);
  EXPECT_EQ(a.cycles, b.cycles);
}

} // namespace
