// hostbench: the ccsim host benchmark binary (run through hostbench/run.py).
//
//   hostbench --workload NAME --seed N --seconds S --trace 0|1
//             [--digests FILE] [--baseline FILE] [--spans-out FILE]
//   hostbench --record-digests FILE [--baseline FILE]
//
// --trace 0 (the measured run): builds the workload from the seed, sets it
// up several times (input generation, job construction, one untimed
// warm-up cell) and reports the median set-up time, then runs the closed
// batch through harness::run_sweep again and again for S seconds, each
// pass running every cell and serialising its run object. It reports the
// simulated cycles of all passes over their wall time, the CPU time of the
// average pass, and the process's peak RSS.
//
// --trace 1 (the traced run; its times are never end-to-end metrics):
// times Machine construction, the cells through SweepJob::runner and
// write_run_fields, reads the host-metrics report, records the network
// traffic through a trace sink and replays it into a standalone
// EventQueue+Network, toggles each observer on one cell, writes the spans
// (Chrome trace-event JSON, loads in Perfetto) and reports the per-layer
// metrics.
//
// Every cell is checked in both modes: it must not throw (deadlock,
// invariant and oracle failures throw), its digest must equal the one
// recorded for its parameters and equal across passes, and figure cells
// must reproduce BENCH_ppopp97.json. The last stdout line is one JSON
// object {"correct", "attempted", "failed", "metrics"}. Exit codes: 0 ok,
// 1 a check failed, 2 usage or input error.
#include "bench.hpp"

#include "harness/machine.hpp"
#include "stats/json.hpp"

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <numeric>
#include <sstream>
#include <stdexcept>

namespace hostbench {
namespace {

constexpr unsigned kSetupRepeats = 16;
constexpr unsigned kMinPasses = 3;
constexpr unsigned kPlainPasses = 3;      // traced run: plain passes
constexpr unsigned kCtorRepeats = 3;      // Machine constructions per cell
constexpr unsigned kReplayRepeats = 3;    // replays per cell, best kept
constexpr unsigned kObserverRounds = 3;   // observer-pass rounds, best kept

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string digests = "hostbench/digests.json";
  std::string baseline = "BENCH_ppopp97.json";
  std::string spans_out;
  std::string record;  ///< --record-digests output ("" = benchmark run)
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "error: " << why << "\n"
            << "usage: hostbench --workload NAME --seed N --seconds S --trace 0|1\n"
               "                 [--digests FILE] [--baseline FILE] [--spans-out FILE]\n"
               "       hostbench --record-digests FILE [--baseline FILE]\n";
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& s, const char* flag) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (s.empty() || *end != '\0') usage(std::string(flag) + " needs an integer");
  return v;
}

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(a + " needs a value");
    const std::string v = argv[++i];
    if (a == "--workload") o.workload = v;
    else if (a == "--seed") o.seed = parse_u64(v, "--seed");
    else if (a == "--seconds") o.seconds = static_cast<double>(parse_u64(v, "--seconds"));
    else if (a == "--trace") o.trace = parse_u64(v, "--trace") != 0;
    else if (a == "--digests") o.digests = v;
    else if (a == "--baseline") o.baseline = v;
    else if (a == "--spans-out") o.spans_out = v;
    else if (a == "--record-digests") o.record = v;
    else usage("unknown flag " + a);
  }
  if (o.record.empty() && o.workload.empty()) usage("--workload is required");
  return o;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Cells attempted and failed, with the first few failure messages.
class Tally {
public:
  void cell(const std::string& name, const std::string& error) {
    ++attempted_;
    if (error.empty()) return;
    ++failed_;
    if (failed_ <= 20) std::cerr << "FAIL " << name << ": " << error << "\n";
  }
  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }

private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

void print_result(const Tally& t, const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += t.failed() == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(t.attempted());
  out += ", \"failed\": " + std::to_string(t.failed());
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    char num[40];
    std::snprintf(num, sizeof num, "%.17g", v);
    if (i != 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + num + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  out += "}}";
  std::cout << out << std::endl;
}

std::vector<harness::SweepJob> jobs_of(const Workload& w) {
  std::vector<harness::SweepJob> jobs;
  jobs.reserve(w.cells.size());
  for (const Cell& c : w.cells) jobs.push_back(c.job);
  return jobs;
}

/// Checks every run of one workload: the gate, plus the same digest for a
/// cell on every pass of this process.
class Verifier {
public:
  Verifier(const Gate& gate, const Workload& w, std::uint64_t seed)
      : gate_(gate),
        w_(w),
        require_recorded_(seed == kDefaultSeed || seed == kHeldOutSeed),
        first_(w.cells.size()),
        first_core_(w.cells.size()) {}

  /// Check one cell's result; `json` is its serialised run (if ok).
  std::string check(std::size_t i, const harness::SweepResult& r,
                    const std::string& json) {
    if (!r.ok) return std::string(harness::to_string(r.fail)) + ": " + r.error;
    const std::string d = digest(json);
    if (first_[i].empty()) first_[i] = d;
    if (d != first_[i]) return "digest changed between passes";
    return check_core(i, r.run);
  }

  /// The simulated fields must match the first run of the cell, whatever
  /// observers were attached.
  std::string check_core(std::size_t i, const harness::RunResult& r) {
    const std::string d = core_digest(r);
    if (first_core_[i].empty()) {
      first_core_[i] = d;
      return gate_.check(w_.cells[i], r, digest(run_json(r)), require_recorded_);
    }
    return d == first_core_[i] ? "" : "an observer changed the simulated results";
  }

private:
  const Gate& gate_;
  const Workload& w_;
  bool require_recorded_;
  std::vector<std::string> first_;
  std::vector<std::string> first_core_;
};

// ---------------------------------------------------------------------
// --trace 0: the measured run
// ---------------------------------------------------------------------

/// This process image's peak resident set (VmHWM). getrusage's ru_maxrss
/// would also count the launching process's RSS from before exec.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

/// Moves the calling thread over the CPUs it may run on, one per step. On a
/// shared host each core is slowed by its own neighbours for seconds at a
/// time, so a one-worker run that stays on one core measures that core's
/// neighbours; visiting every core in turn measures the host.
class CpuRotation {
public:
  CpuRotation() {
    CPU_ZERO(&allowed_);
    if (sched_getaffinity(0, sizeof allowed_, &allowed_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &allowed_)) cpus_.push_back(c);
  }
  ~CpuRotation() { release(); }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// The step-th CPU (round robin), or -1 if the mask was unreadable.
  [[nodiscard]] int cpu(std::size_t step) const {
    return cpus_.empty() ? -1 : cpus_[step % cpus_.size()];
  }

  /// Pin the calling thread to cpu(step).
  void pin(std::size_t step) const {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu(step), &one);
    sched_setaffinity(0, sizeof one, &one);
  }

  /// Let the calling thread (and threads it creates) run anywhere again.
  void release() const { sched_setaffinity(0, sizeof allowed_, &allowed_); }

private:
  cpu_set_t allowed_;
  std::vector<int> cpus_;
};

/// Hypervisor steal time per CPU in nanoseconds (/proc/stat): time the
/// host ran something else while that virtual CPU had work. Empty where
/// the file is unreadable; all zeros on bare metal.
std::vector<std::int64_t> steal_ns() {
  std::vector<std::int64_t> out;
  std::ifstream stat("/proc/stat");
  const double ns_per_tick = 1e9 / static_cast<double>(sysconf(_SC_CLK_TCK));
  std::string line;
  while (std::getline(stat, line)) {
    if (line.size() < 4 || line.compare(0, 3, "cpu") != 0 || !std::isdigit(line[3]))
      continue;
    std::istringstream fields(line);
    std::string name;
    std::uint64_t v[8] = {};
    fields >> name;
    for (std::uint64_t& x : v) fields >> x;
    const std::size_t c = std::stoul(name.substr(3));
    if (out.size() <= c) out.resize(c + 1, 0);
    out[c] = static_cast<std::int64_t>(static_cast<double>(v[7]) * ns_per_tick);
  }
  return out;
}

std::int64_t steal_on(int cpu) {
  const std::vector<std::int64_t> s = steal_ns();
  return cpu >= 0 && static_cast<std::size_t>(cpu) < s.size() ? s[cpu] : 0;
}

std::int64_t steal_total() {
  const std::vector<std::int64_t> s = steal_ns();
  return std::accumulate(s.begin(), s.end(), std::int64_t{0});
}

int measured_run(const Options& o) {
  const Gate gate(o.digests, o.baseline);
  Tally tally;
  const CpuRotation rotation;

  // Set-up: input generation, job construction, one untimed warm-up cell;
  // each repetition on the next CPU, less the steal on it.
  std::vector<double> setups;
  Workload w;
  std::vector<harness::SweepJob> jobs;
  for (unsigned k = 0; k < kSetupRepeats; ++k) {
    rotation.pin(k);
    const std::int64_t steal0 = steal_on(rotation.cpu(k));
    const Clock::time_point t0 = Clock::now();
    w = make_workload(o.workload, o.seed);
    jobs = jobs_of(w);
    const harness::SweepResult warm = harness::run_sweep_job(jobs.front());
    const std::string json = warm.ok ? run_json(warm.run) : "";
    setups.push_back(seconds_since(t0) -
                     static_cast<double>(steal_on(rotation.cpu(k)) - steal0) * 1e-9);
    Verifier v(gate, w, o.seed);
    tally.cell(w.cells.front().key, v.check(0, warm, json));
  }

  // Timed phase: whole passes of the batch until the time is up. A
  // one-worker batch runs in this thread and moves to the next CPU after
  // every cell; worker threads inherit this thread's affinity, so a pool
  // starts unpinned. Hypervisor steal on the CPUs the cells ran on is no
  // time the simulator could have used, so it is taken out of the wall
  // time: per cell on the pinned CPU, or averaged over a pool's workers.
  Verifier verify(gate, w, o.seed);
  harness::SweepOptions so;
  so.jobs = w.workers;
  std::size_t cells_done = 0;
  std::int64_t steal_mark = 0;
  std::int64_t stolen_ns = 0;
  if (w.workers == 1) {
    so.progress = [&](std::size_t, std::size_t) {
      stolen_ns += steal_on(rotation.cpu(cells_done)) - steal_mark;
      rotation.pin(++cells_done);
      steal_mark = steal_on(rotation.cpu(cells_done));
    };
  } else {
    rotation.release();
  }
  Cycle cycles = 0;
  double wall = 0.0;
  double cpu = 0.0;
  std::size_t passes = 0;
  std::vector<std::string> json(jobs.size());
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(o.seconds));
  while (Clock::now() < deadline || passes < kMinPasses) {
    const std::int64_t pool_steal0 = w.workers == 1 ? 0 : steal_total();
    steal_mark = w.workers == 1 ? steal_on(rotation.cpu(cells_done)) : 0;
    const Clock::time_point t0 = Clock::now();
    const std::int64_t c0 = process_cpu_ns();
    const std::vector<harness::SweepResult> results = harness::run_sweep(jobs, so);
    for (std::size_t i = 0; i < results.size(); ++i) {
      json[i] = results[i].ok ? run_json(results[i].run) : "";
      cycles += results[i].run.cycles;
    }
    const double pass_wall = seconds_since(t0);
    if (w.workers != 1) stolen_ns += (steal_total() - pool_steal0) / w.workers;
    wall += pass_wall;
    cpu += static_cast<double>(process_cpu_ns() - c0) * 1e-9;
    ++passes;
    std::cerr << ' ' << pass_wall;
    for (std::size_t i = 0; i < results.size(); ++i)
      tally.cell(w.cells[i].key, verify.check(i, results[i], json[i]));
  }

  const double stolen = static_cast<double>(stolen_ns) * 1e-9;
  std::cerr << "\n" << w.name << ": " << passes << " passes of " << w.cells.size()
            << " cells on " << w.workers << " worker(s), " << wall << " s wall, " << stolen
            << " s stolen\n";
  print_result(tally, {{"sim_mcycles_per_s",
                        static_cast<double>(cycles) / (wall - stolen) * 1e-6, "Mcycles/s"},
                       {"cpu_s", cpu / static_cast<double>(passes), "s"},
                       {"setup_s", median(setups), "s"},
                       {"peak_rss_mb", peak_rss_mb(), "MB"}});
  return tally.failed() == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------
// --trace 1: the traced run
// ---------------------------------------------------------------------

unsigned worker_track() {
  static std::atomic<unsigned> next{1};
  thread_local const unsigned track = next++;
  return track;
}

struct CellTiming {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t cpu_ns = 0;
  unsigned track = 0;
};

/// The workload's jobs, each wrapped in a SweepJob::runner that records
/// the cell's span and thread CPU time into `timing[i]`.
std::vector<harness::SweepJob> timed_jobs(const Workload& w, const SpanLog& spans,
                                          std::vector<CellTiming>& timing) {
  timing.assign(w.cells.size(), CellTiming{});
  std::vector<harness::SweepJob> jobs = jobs_of(w);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    CellTiming* slot = &timing[i];
    jobs[i].runner = [inner = w.cells[i].job, slot, &spans](
                         const harness::MachineConfig& m) {
      slot->track = worker_track();
      slot->start_ns = spans.now_ns();
      const std::int64_t c0 = thread_cpu_ns();
      harness::RunResult r = run_job(inner, m);
      slot->cpu_ns = thread_cpu_ns() - c0;
      slot->end_ns = spans.now_ns();
      return r;
    };
  }
  return jobs;
}

struct Observer {
  const char* name;
  void (*set)(harness::MachineConfig&, bool);
  bool (*get)(const harness::MachineConfig&);
};

const Observer kObservers[] = {
    {"trace", [](harness::MachineConfig& m, bool on) { m.trace = on; },
     [](const harness::MachineConfig& m) { return m.trace; }},
    {"check_invariants",
     [](harness::MachineConfig& m, bool on) { m.obs.check_invariants = on; },
     [](const harness::MachineConfig& m) { return m.obs.check_invariants; }},
    {"host_metrics", [](harness::MachineConfig& m, bool on) { m.obs.host_metrics = on; },
     [](const harness::MachineConfig& m) { return m.obs.host_metrics; }},
    {"profile", [](harness::MachineConfig& m, bool on) { m.obs.profile = on; },
     [](const harness::MachineConfig& m) { return m.obs.profile; }},
    {"sharing", [](harness::MachineConfig& m, bool on) { m.obs.sharing = on; },
     [](const harness::MachineConfig& m) { return m.obs.sharing; }},
    {"hot_blocks", [](harness::MachineConfig& m, bool on) { m.obs.hot_blocks = on; },
     [](const harness::MachineConfig& m) { return m.obs.hot_blocks; }},
};

class TracedRun {
public:
  TracedRun(const Options& o, const Gate& gate)
      : o_(o), w_(make_workload(o.workload, o.seed)), verify_(gate, w_, o.seed) {}

  int run() {
    const SpanLog::Id root = spans_.open("workload " + w_.name, SpanLog::kNone);
    machine_ctor(root);
    plain_passes(root);
    host_metrics_pass(root);
    traced_pass(root);
    observer_pass(root);
    spans_.close(root);
    if (!o_.spans_out.empty()) spans_.write_perfetto(o_.spans_out);

    const double overhead = ratio(traced_cpu_ns_, plain_cpu_ns_);
    std::fprintf(stderr,
                 "%s: tracing overhead %.2fx (cell CPU with trace sink %.1f ms vs "
                 "plain %.1f ms); replay %s\n",
                 w_.name.c_str(), overhead, traced_cpu_ns_ * 1e-6, plain_cpu_ns_ * 1e-6,
                 replay_ok_ ? "matches every recorded delivery" : "INVALID");
    metrics_.push_back({"obs.traced_pass.overhead_x", overhead, "x"});
    print_result(tally_, metrics_);
    return tally_.failed() == 0 ? 0 : 1;
  }

private:
  void add(std::string name, double value, std::string unit) {
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }

  // harness: Machine construction for every cell's config.
  void machine_ctor(SpanLog::Id root) {
    const SpanLog::Id phase = spans_.open("machine_ctor", root);
    std::vector<double> ms;
    for (const Cell& c : w_.cells) {
      double best = 1e300;
      for (unsigned r = 0; r < kCtorRepeats; ++r) {
        const SpanLog::Id s = spans_.open("machine_ctor " + c.job.name, phase);
        const Clock::time_point t0 = Clock::now();
        { harness::Machine m(c.job.machine); }
        best = std::min(best, seconds_since(t0) * 1e3);
        spans_.close(s);
      }
      ms.push_back(best);
    }
    spans_.close(phase);
    add("harness.machine_ctor_ms", median(ms), "ms");
  }

  // harness + stats: the workload as measured, cells timed through the
  // runner, each run object serialised by write_run_fields.
  void plain_passes(SpanLog::Id root) {
    std::vector<double> cell_cpu_ms(w_.cells.size(), 1e300);
    std::vector<double> efficiency;
    std::vector<double> walls;
    double serialize_ms = 1e300;
    harness::SweepOptions so;
    so.jobs = w_.workers;
    const double workers = std::min<double>(w_.workers, w_.cells.size());
    for (unsigned p = 0; p < kPlainPasses; ++p) {
      const SpanLog::Id pass = spans_.open("plain_pass", root);
      std::vector<CellTiming> timing;
      const std::vector<harness::SweepJob> jobs = timed_jobs(w_, spans_, timing);
      const Clock::time_point t0 = Clock::now();
      const std::vector<harness::SweepResult> results = harness::run_sweep(jobs, so);
      const double wall = seconds_since(t0);
      double ser_ms = 0.0;
      std::int64_t cpu_ns = 0;
      for (std::size_t i = 0; i < results.size(); ++i) {
        const SpanLog::Id cell = spans_.add("cell " + w_.cells[i].job.name, pass,
                                            timing[i].start_ns, timing[i].end_ns,
                                            timing[i].track);
        spans_.add("run", cell, timing[i].start_ns, timing[i].end_ns, timing[i].track);
        const SpanLog::Id ser = spans_.open("serialize " + w_.cells[i].job.name, pass);
        const Clock::time_point s0 = Clock::now();
        const std::string json = results[i].ok ? run_json(results[i].run) : "";
        ser_ms += seconds_since(s0) * 1e3;
        spans_.close(ser);
        tally_.cell(w_.cells[i].key, verify_.check(i, results[i], json));
        cpu_ns += timing[i].cpu_ns;
        cell_cpu_ms[i] = std::min(cell_cpu_ms[i], timing[i].cpu_ns * 1e-6);
      }
      spans_.close(pass);
      efficiency.push_back(ratio(cpu_ns * 1e-9, wall * workers));
      walls.push_back(wall);
      serialize_ms = std::min(serialize_ms, ser_ms);
    }
    plain_cpu_ns_ = 0;
    for (double ms : cell_cpu_ms) plain_cpu_ns_ += ms * 1e6;
    plain_wall_s_ = median(walls);
    add("harness.cell_cpu_ms.p50", median(cell_cpu_ms), "ms");
    add("harness.cell_cpu_ms.max", *std::max_element(cell_cpu_ms.begin(), cell_cpu_ms.end()),
        "ms");
    add("harness.sweep.efficiency", median(efficiency), "ratio");
    add("stats.serialize_ms", serialize_ms, "ms");
  }

  // sim, cpu, net, proto, mem, obs: the host report and the counters.
  void host_metrics_pass(SpanLog::Id root) {
    const SpanLog::Id pass = spans_.open("host_metrics_pass", root);
    std::vector<harness::SweepJob> jobs = jobs_of(w_);
    for (harness::SweepJob& j : jobs) j.machine.obs.host_metrics = true;
    harness::SweepOptions so;
    so.jobs = w_.workers;
    const std::vector<harness::SweepResult> results = harness::run_sweep(jobs, so);
    spans_.close(pass);

    obs::HostPerfReport host;
    stats::Counters sum;
    Cycle cycles = 0;
    std::uint64_t checks = 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
      const harness::SweepResult& r = results[i];
      tally_.cell(w_.cells[i].key, r.ok ? verify_.check_core(i, r.run)
                                        : std::string(harness::to_string(r.fail)) +
                                              ": " + r.error);
      if (!r.ok) continue;
      host.merge(r.run.host);
      stats::accumulate(sum, r.run.counters);
      cycles += r.run.cycles;
      checks += r.run.invariant_checks;
    }
    const double events = static_cast<double>(host.events_executed);
    const double mem_ops = static_cast<double>(sum.mem.shared_reads + sum.mem.shared_writes +
                                               sum.mem.atomics);
    std::uint64_t messages = 0;
    for (std::uint64_t n : sum.net.by_type) messages += n;
    const double proto_ns =
        static_cast<double>(host.ns_by[static_cast<std::size_t>(obs::HostCat::Protocol)]);

    add("sim.events", events, "count");
    add("sim.events_per_kcycle", ratio(events, static_cast<double>(cycles) / 1000.0),
        "count/kcycle");
    add("sim.events_per_s", ratio(events, plain_wall_s_), "1/s");
    add("sim.queue_depth.p50", static_cast<double>(host.queue_depth.percentile(0.50)),
        "count");
    add("sim.queue_peak", static_cast<double>(host.queue_peak), "count");
    add("sim.host_share", host.share(obs::HostCat::EventLoop), "ratio");
    add("cpu.mem_ops", mem_ops, "count");
    add("cpu.frames", static_cast<double>(host.frames), "count");
    add("cpu.frames_per_op", ratio(static_cast<double>(host.frames), mem_ops), "ratio");
    add("net.messages", static_cast<double>(messages), "count");
    add("net.flits", static_cast<double>(sum.net.flits), "count");
    add("net.host_share", host.share(obs::HostCat::Network), "ratio");
    add("proto.ns_per_msg", ratio(proto_ns, static_cast<double>(host.messages)), "ns");
    add("proto.host_share", host.share(obs::HostCat::Protocol), "ratio");
    add("proto.updates", static_cast<double>(sum.updates.total()), "count");
    add("proto.useful_update_ratio",
        ratio(static_cast<double>(sum.updates.useful()),
              static_cast<double>(sum.updates.total())),
        "ratio");
    add("mem.misses", static_cast<double>(sum.misses.total()), "count");
    add("mem.useful_miss_ratio",
        ratio(static_cast<double>(sum.misses.useful()),
              static_cast<double>(sum.misses.total())),
        "ratio");
    static constexpr const char* kMissNames[stats::kMissClasses] = {
        "cold", "true_sharing", "false_sharing", "eviction", "drop"};
    for (std::size_t c = 0; c < stats::kMissClasses; ++c)
      add(std::string("mem.misses.") + kMissNames[c],
          static_cast<double>(sum.misses.by[c]), "count");
    add("mem.wb_stall_cycles", static_cast<double>(sum.mem.write_buffer_stalls), "cycles");
    add("mem.fence_stall_cycles", static_cast<double>(sum.mem.fence_stall_cycles), "cycles");
    add("obs.checker.checks", static_cast<double>(checks), "count");
    add("obs.host_share", host.share(obs::HostCat::ObsHooks), "ratio");
  }

  // net + sim: record every message through a trace sink (one worker),
  // then replay the recorded sends into a standalone EventQueue+Network.
  void traced_pass(SpanLog::Id root) {
    const SpanLog::Id pass = spans_.open("traced_pass", root);
    NetRecorder recorder;
    std::uint64_t trace_events = 0;
    std::uint64_t queue_ns = 0, net_ns = 0, queue_events = 0, messages = 0;
    std::uint64_t remote = 0, block = 0;
    for (std::size_t i = 0; i < w_.cells.size(); ++i) {
      const Cell& c = w_.cells[i];
      const SpanLog::Id cell = spans_.open("cell " + c.job.name, pass);
      recorder.clear();
      harness::MachineConfig cfg = c.job.machine;
      cfg.obs.sink = &recorder;
      harness::RunResult r;
      std::string error;
      const SpanLog::Id run = spans_.open("run", cell);
      const std::int64_t c0 = thread_cpu_ns();
      try {
        r = run_job(c.job, cfg);
      } catch (const std::exception& e) {
        error = e.what();
      }
      traced_cpu_ns_ += static_cast<double>(thread_cpu_ns() - c0);
      spans_.close(run);
      if (error.empty()) error = verify_.check_core(i, r);
      if (error.empty()) {
        // The machine's own trace log exists only when its config asks
        // for one (trace, or the checker that forces it on).
        if (c.job.machine.trace || c.job.machine.obs.check_invariants)
          trace_events += recorder.events();
        const SpanLog::Id rs = spans_.open("replay", cell);
        const ReplayReport rep = replay(recorder.records(), cfg.nprocs, cfg.net,
                                        r.counters.net, kReplayRepeats);
        spans_.close(rs);
        if (!rep.error.empty()) {
          replay_ok_ = false;
          error = "replay: " + rep.error;
        }
        queue_ns += rep.queue_ns;
        net_ns += rep.net_ns;
        queue_events += rep.queue_events;
        messages += rep.messages;
        remote += rep.remote_messages;
        block += rep.block_messages;
      }
      spans_.close(cell);
      tally_.cell(c.key, error);
    }
    spans_.close(pass);
    // A failed replay leaves its metrics meaningless: report them as 0.
    const double valid = replay_ok_ ? 1.0 : 0.0;
    add("sim.replay_ns_per_event",
        valid * ratio(static_cast<double>(queue_ns), static_cast<double>(queue_events)),
        "ns");
    add("net.replay_send_ns",
        valid * ratio(static_cast<double>(net_ns) - static_cast<double>(queue_ns),
                      static_cast<double>(messages)),
        "ns");
    add("net.block_msg_share",
        ratio(static_cast<double>(block), static_cast<double>(remote)), "ratio");
    add("obs.trace.events", static_cast<double>(trace_events), "count");
  }

  // obs: each observer alone on the workload's first cell against every
  // observer off. overhead_x is what the workload pays for the observer as
  // it configures it (a second all-off run where it leaves it off);
  // toggle_x is the observer's cost when switched on.
  void observer_pass(SpanLog::Id root) {
    const SpanLog::Id pass = spans_.open("observer_pass", root);
    const Cell& c = w_.cells.front();
    harness::MachineConfig off = c.job.machine;
    for (const Observer& ob : kObservers) ob.set(off, false);
    off.obs.sink = nullptr;
    off.obs.sample_interval = 0;

    std::vector<harness::MachineConfig> configs{off, off};  // base_a, base_b
    std::vector<std::string> names{"all_off", "all_off_again"};
    for (const Observer& ob : kObservers) {
      configs.push_back(off);
      ob.set(configs.back(), true);
      names.push_back(ob.name);
    }
    std::vector<double> best(configs.size(), 1e300);
    for (unsigned round = 0; round < kObserverRounds; ++round) {
      // Rotate the order each round so no config always runs first.
      for (std::size_t step = 0; step < configs.size(); ++step) {
        const std::size_t k = (step + round * 3) % configs.size();
        const SpanLog::Id s = spans_.open("observer " + names[k], pass);
        std::string error;
        const std::int64_t c0 = thread_cpu_ns();
        try {
          const harness::RunResult r = run_job(c.job, configs[k]);
          best[k] = std::min(best[k], static_cast<double>(thread_cpu_ns() - c0));
          error = verify_.check_core(0, r);
        } catch (const std::exception& e) {
          error = e.what();
        }
        spans_.close(s);
        tally_.cell(c.key + " +" + names[k], error);
      }
    }
    spans_.close(pass);
    const double base = std::min(best[0], best[1]);
    for (std::size_t k = 0; k < std::size(kObservers); ++k) {
      const Observer& ob = kObservers[k];
      const double toggle = ratio(best[2 + k], base);
      add(std::string("obs.") + ob.name + ".overhead_x",
          ob.get(c.job.machine) ? toggle : ratio(best[1], best[0]), "x");
      add(std::string("obs.") + ob.name + ".toggle_x", toggle, "x");
    }
  }

  const Options& o_;
  Workload w_;
  Verifier verify_;
  SpanLog spans_;
  Tally tally_;
  std::vector<Metric> metrics_;
  double plain_cpu_ns_ = 0.0;
  double plain_wall_s_ = 0.0;
  double traced_cpu_ns_ = 0.0;
  bool replay_ok_ = true;
};

// ---------------------------------------------------------------------
// --record-digests: the correctness reference
// ---------------------------------------------------------------------

int record_digests(const Options& o) {
  std::map<std::string, std::string> digests;
  int status = 0;
  for (const std::string& name : workload_names()) {
    for (std::uint64_t seed : {kDefaultSeed, kHeldOutSeed}) {
      const Workload w = make_workload(name, seed);
      harness::SweepOptions so;
      so.jobs = w.workers;
      const std::vector<harness::SweepResult> results = harness::run_sweep(jobs_of(w), so);
      for (std::size_t i = 0; i < results.size(); ++i) {
        if (!results[i].ok) {
          std::cerr << "FAIL " << w.cells[i].key << ": " << results[i].error << "\n";
          status = 1;
          continue;
        }
        digests[w.cells[i].key] = digest(run_json(results[i].run));
      }
    }
  }
  if (status != 0) return status;
  std::ofstream out(o.record);
  if (!out) throw std::runtime_error("cannot write " + o.record);
  stats::JsonWriter w(out);
  w.begin_object();
  w.key("schema").value(1);
  w.key("default_seed").value(kDefaultSeed);
  w.key("held_out_seed").value(kHeldOutSeed);
  w.key("digests").begin_object();
  for (const auto& [key, d] : digests) w.key(key).value(d);
  w.end_object();
  w.end_object();
  out << '\n';
  std::cerr << "recorded " << digests.size() << " cell digests\n";
  return 0;
}

} // namespace
} // namespace hostbench

int main(int argc, char** argv) {
  using namespace hostbench;
  const Options o = parse_args(argc, argv);
  try {
    if (!o.record.empty()) return record_digests(o);
    if (!o.trace) return measured_run(o);
    const Gate gate(o.digests, o.baseline);
    TracedRun traced(o, gate);
    return traced.run();
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
