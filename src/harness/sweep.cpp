#include "harness/sweep.hpp"

#include "harness/progress.hpp"

#include <atomic>
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <stdexcept>
#include <thread>

namespace ccsim::harness {

std::string_view to_string(ConstructFamily f) noexcept {
  switch (f) {
    case ConstructFamily::Lock: return "lock";
    case ConstructFamily::Barrier: return "barrier";
    case ConstructFamily::Reduction: return "reduction";
  }
  return "?";
}

std::string_view short_tag(const Construct& c) noexcept {
  switch (c.family) {
    case ConstructFamily::Lock:
      switch (c.lock) {
        case LockKind::Ticket: return "tk";
        case LockKind::Mcs: return "MCS";
        case LockKind::UcMcs: return "uc";
      }
      break;
    case ConstructFamily::Barrier:
      switch (c.barrier) {
        case BarrierKind::Central: return "cb";
        case BarrierKind::Dissemination: return "db";
        case BarrierKind::Tree: return "tb";
        case BarrierKind::CombiningTree: return "ct";
      }
      break;
    case ConstructFamily::Reduction:
      return c.reduction == ReductionKind::Parallel ? "pr" : "sr";
  }
  return "?";
}

Construct parse_short_tag(std::string_view flag, ConstructFamily family,
                          std::string_view tag) {
  std::string known;
  for (const Construct& c : kConstructs) {
    if (c.family != family) continue;
    const std::string_view t = short_tag(c);
    if (tag == t || (tag == "mcs" && t == "MCS")) return c;
    known += known.empty() ? "" : ", ";
    known += t;
  }
  throw std::invalid_argument(std::string(flag) + ": unknown " +
                              std::string(to_string(family)) + " \"" +
                              std::string(tag) + "\" (" + known + ")");
}

std::uint64_t scaled(double scale, std::uint64_t paper_count) {
  const auto n = static_cast<std::uint64_t>(static_cast<double>(paper_count) * scale);
  return n < 32 ? 32 : n;
}

SweepJob sweep_cell(std::string name, const Construct& c, const MachineConfig& m,
                    double scale, std::optional<std::uint64_t> seed) {
  SweepJob j;
  j.name = std::move(name);
  j.machine = m;
  j.family = c.family;
  switch (c.family) {
    case ConstructFamily::Lock:
      j.lock = c.lock;
      j.lock_params.total_acquires = scaled(scale, j.lock_params.total_acquires);
      if (seed) j.lock_params.seed = *seed;
      break;
    case ConstructFamily::Barrier:
      j.barrier = c.barrier;
      j.barrier_params.episodes = scaled(scale, j.barrier_params.episodes);
      break;
    case ConstructFamily::Reduction:
      j.reduction = c.reduction;
      j.reduction_params.rounds = scaled(scale, j.reduction_params.rounds);
      if (seed) j.reduction_params.seed = *seed;
      break;
  }
  return j;
}

std::string_view to_string(SweepResult::FailKind k) noexcept {
  switch (k) {
    case SweepResult::FailKind::None: return "none";
    case SweepResult::FailKind::Deadlock: return "deadlock";
    case SweepResult::FailKind::Invariant: return "invariant";
    case SweepResult::FailKind::Other: return "other";
  }
  return "?";
}

SweepResult run_sweep_job(const SweepJob& job) {
  SweepResult r;
  r.name = job.name;
  try {
    if (job.runner) {
      r.run = job.runner(job.machine);
    } else {
      switch (job.family) {
        case ConstructFamily::Lock:
          r.run = run_lock_experiment(job.machine, job.lock, job.lock_params);
          break;
        case ConstructFamily::Barrier:
          r.run = run_barrier_experiment(job.machine, job.barrier,
                                         job.barrier_params);
          break;
        case ConstructFamily::Reduction:
          r.run = run_reduction_experiment(job.machine, job.reduction,
                                           job.reduction_params);
          break;
      }
    }
    r.ok = true;
  } catch (const DeadlockError& e) {
    r.fail = SweepResult::FailKind::Deadlock;
    r.error = e.what();
  } catch (const obs::InvariantViolation& e) {
    r.fail = SweepResult::FailKind::Invariant;
    r.error = e.what();
  } catch (const std::exception& e) {
    r.fail = SweepResult::FailKind::Other;
    r.error = e.what();
  } catch (...) {
    r.fail = SweepResult::FailKind::Other;
    r.error = "unknown exception";
  }
  return r;
}

std::vector<SweepResult> run_sweep(const std::vector<SweepJob>& jobs,
                                   const SweepOptions& opts) {
  std::vector<SweepResult> results(jobs.size());
  if (jobs.empty()) return results;

  unsigned workers = opts.jobs != 0 ? opts.jobs
                                    : std::max(1u, std::thread::hardware_concurrency());
  workers = std::min<unsigned>(workers, static_cast<unsigned>(jobs.size()));

  if (workers > 1) {
    for (const SweepJob& j : jobs)
      if (j.machine.obs.sink != nullptr)
        throw std::invalid_argument(
            "sweep: job \"" + j.name +
            "\" carries a trace sink; sinks are not thread-safe, run with "
            "jobs=1");
  }

  if (workers == 1) {
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      results[i] = run_sweep_job(jobs[i]);
      if (opts.progress) opts.progress(i + 1, jobs.size());
    }
    return results;
  }

  // Work-stealing by shared index: each worker claims the next unclaimed
  // job. results[i] slots are disjoint per job, and the jthread joins at
  // scope exit publish every slot before we return.
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  {
    std::vector<std::jthread> pool;
    pool.reserve(workers);
    for (unsigned w = 0; w < workers; ++w) {
      pool.emplace_back([&jobs, &results, &next, &done, &opts] {
        for (;;) {
          const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
          if (i >= jobs.size()) return;
          results[i] = run_sweep_job(jobs[i]);
          const std::size_t d = done.fetch_add(1, std::memory_order_relaxed) + 1;
          if (opts.progress) opts.progress(d, jobs.size());
        }
      });
    }
  }
  return results;
}

std::size_t report_failures(const std::vector<SweepResult>& results) {
  std::size_t failed = 0;
  for (const SweepResult& r : results) {
    if (r.ok) continue;
    ++failed;
    std::fprintf(stderr, "failed cell %s [%s]: %s\n", r.name.c_str(),
                 std::string(to_string(r.fail)).c_str(), r.error.c_str());
  }
  return failed;
}

std::vector<SweepResult> run_sweep_reported(const std::vector<SweepJob>& jobs,
                                            unsigned workers, bool progress) {
  SweepOptions so;
  so.jobs = workers;
  ProgressReporter reporter(std::cerr, jobs.size());
  if (progress)
    so.progress = [&reporter](std::size_t done, std::size_t) { reporter.update(done); };
  std::vector<SweepResult> results = run_sweep(jobs, so);
  reporter.finish();
  report_failures(results);
  return results;
}

} // namespace ccsim::harness
