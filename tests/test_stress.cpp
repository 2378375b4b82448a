// Stress-harness tests: run_stress_cell is deterministic (same seed, same
// machine => identical cycles and check counts, with and without jitter),
// jitter actually perturbs timing, stress cells pass the invariant checker
// on every protocol, and the sweep engine classifies stress failures
// (FailKind propagation for deadlocks and invariant violations).
#include "harness/stress.hpp"

#include "harness/machine.hpp"
#include "harness/sweep.hpp"
#include "obs/invariants.hpp"
#include "sim/rng.hpp"

#include <gtest/gtest.h>

namespace {

using namespace ccsim;
using harness::MachineConfig;
using harness::RunResult;
using harness::run_stress_cell;
using harness::StressParams;
using harness::SweepJob;
using harness::SweepOptions;
using harness::SweepResult;

MachineConfig stress_machine(proto::Protocol p, Cycle jitter = 0,
                             std::uint64_t seed = 1) {
  MachineConfig cfg;
  cfg.protocol = p;
  cfg.nprocs = 4;
  cfg.obs.check_invariants = true;
  cfg.watchdog_stall_cycles = 2'000'000;
  cfg.net.jitter_max = jitter;
  cfg.net.jitter_seed = sim::Rng::derive(seed, 0x717e5);
  return cfg;
}

StressParams small_params(std::uint64_t seed = 1) {
  StressParams sp;
  sp.seed = seed;
  sp.segments = 3;
  sp.ops_per_segment = 24;
  sp.data_blocks = 8;
  return sp;
}

TEST(Stress, CellsPassTheCheckerOnEveryProtocol) {
  for (proto::Protocol p :
       {proto::Protocol::WI, proto::Protocol::PU, proto::Protocol::CU}) {
    const RunResult r = run_stress_cell(stress_machine(p), small_params());
    EXPECT_GT(r.cycles, 0u) << proto::to_string(p);
    EXPECT_GT(r.invariant_checks, 0u) << proto::to_string(p);
  }
  // Hybrid: data blocks on seed-chosen modes, sync constructs on the
  // default; both invalidation and update traffic must show up.
  for (Cycle jitter : {Cycle{0}, Cycle{17}}) {
    for (proto::Protocol def :
         {proto::Protocol::WI, proto::Protocol::PU, proto::Protocol::CU}) {
      MachineConfig cfg = stress_machine(proto::Protocol::Hybrid, jitter);
      cfg.hybrid_default = def;
      const RunResult r = run_stress_cell(cfg, small_params());
      const std::string what =
          "Hybrid/" + std::string(proto::to_string(def)) + " jitter " +
          std::to_string(jitter);
      EXPECT_GT(r.cycles, 0u) << what;
      EXPECT_GT(r.invariant_checks, 0u) << what;
      EXPECT_GT(r.counters.net.of(net::MsgType::GetX) +
                    r.counters.net.of(net::MsgType::Upgrade),
                0u)
          << what;
      EXPECT_GT(r.counters.net.of(net::MsgType::UpdateReq), 0u) << what;
    }
  }
}

TEST(Stress, RacingMcsHandoffPassesTheStateAwareAudit) {
  // Regression: CU at 8 procs with this seed runs an MCS segment whose
  // qnode-flag write race strands a superseded value in a ValidU copy —
  // legal for a write-through update protocol (the writer is excluded
  // from its own multicast), so the audit must hold ValidU copies to
  // value-history membership, not memory equality.
  StressParams sp;
  sp.seed = 2;
  const RunResult r =
      run_stress_cell(stress_machine(proto::Protocol::CU, 0, 2), sp);
  EXPECT_GT(r.invariant_checks, 0u);
}

TEST(Stress, SameSeedIsReproducible) {
  for (Cycle jitter : {Cycle{0}, Cycle{7}}) {
    const auto cfg = stress_machine(proto::Protocol::WI, jitter);
    const RunResult a = run_stress_cell(cfg, small_params());
    const RunResult b = run_stress_cell(cfg, small_params());
    EXPECT_EQ(a.cycles, b.cycles) << "jitter " << jitter;
    EXPECT_EQ(a.invariant_checks, b.invariant_checks) << "jitter " << jitter;
  }
}

TEST(Stress, DifferentSeedsDiverge) {
  const auto cfg = stress_machine(proto::Protocol::WI);
  const RunResult a = run_stress_cell(cfg, small_params(1));
  const RunResult b = run_stress_cell(cfg, small_params(2));
  EXPECT_NE(a.cycles, b.cycles);
}

TEST(Stress, JitterPerturbsTimingButNotCorrectness) {
  const RunResult a =
      run_stress_cell(stress_machine(proto::Protocol::PU, 0), small_params());
  const RunResult b =
      run_stress_cell(stress_machine(proto::Protocol::PU, 9), small_params());
  // Perturbed delivery must shift timing -- otherwise the jitter knob is
  // inert and the stress grid explores nothing.
  EXPECT_NE(a.cycles, b.cycles);
}

TEST(Stress, SweepOverStressCellsIsDeterministicAcrossJobs) {
  std::vector<SweepJob> jobs;
  for (proto::Protocol p :
       {proto::Protocol::WI, proto::Protocol::PU, proto::Protocol::CU}) {
    for (std::uint64_t seed : {1ULL, 2ULL}) {
      SweepJob j;
      j.name = std::string("stress/") + std::string(proto::to_string(p)) +
               "/s" + std::to_string(seed);
      j.machine = stress_machine(p, /*jitter=*/3, seed);
      const StressParams sp = small_params(seed);
      j.runner = [sp](const MachineConfig& cfg) {
        return run_stress_cell(cfg, sp);
      };
      jobs.push_back(std::move(j));
    }
  }
  SweepOptions par;
  par.jobs = 4;
  const auto a = harness::run_sweep(jobs, SweepOptions{});
  const auto b = harness::run_sweep(jobs, par);
  ASSERT_EQ(a.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    ASSERT_TRUE(a[i].ok) << a[i].name << ": " << a[i].error;
    ASSERT_TRUE(b[i].ok) << b[i].name << ": " << b[i].error;
    EXPECT_EQ(a[i].run.cycles, b[i].run.cycles) << jobs[i].name;
    EXPECT_EQ(a[i].run.invariant_checks, b[i].run.invariant_checks)
        << jobs[i].name;
  }
}

TEST(Stress, HungRunnerIsClassifiedAsDeadlock) {
  SweepJob j;
  j.name = "stress/hang";
  j.runner = [](const MachineConfig& cfg) -> RunResult {
    harness::Machine m(cfg);
    const Addr flag = m.alloc().allocate_on(0, 8, "never");
    std::vector<harness::Machine::Program> ps;
    ps.push_back([&](cpu::Cpu& c) -> sim::Task {
      co_await c.spin_until(flag, [](std::uint64_t v) { return v == 1; });
    });
    m.run(ps);  // throws DeadlockError: nobody ever sets the flag
    return {};
  };
  const SweepResult r = harness::run_sweep_job(j);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.fail, SweepResult::FailKind::Deadlock);
  EXPECT_NE(r.error.find("drained with programs waiting"), std::string::npos)
      << r.error;
}

TEST(Stress, CorruptingRunnerIsClassifiedAsInvariantViolation) {
  SweepJob j;
  j.name = "stress/corrupt";
  j.machine.obs.check_invariants = true;
  j.machine.nprocs = 2;
  j.runner = [](const MachineConfig& cfg) -> RunResult {
    harness::Machine m(cfg);
    const Addr a = m.alloc().allocate_on(0, 8, "target");
    std::vector<harness::Machine::Program> ps;
    ps.push_back([&](cpu::Cpu& c) -> sim::Task {
      co_await c.store(a, 5);
      co_await c.fence();
      m.node(0).cache_ctrl().cache().write(a, 8, 1000);  // fault injection
    });
    m.run(ps);  // final audit throws InvariantViolation
    return {};
  };
  const SweepResult r = harness::run_sweep_job(j);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.fail, SweepResult::FailKind::Invariant);
  EXPECT_NE(r.error.find("coherence invariant violation"), std::string::npos)
      << r.error;
}

} // namespace
