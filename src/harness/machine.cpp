#include "harness/machine.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

namespace ccsim::harness {

namespace {
/// Reject configurations the model cannot represent before any member is
/// built from them (a zero-node mesh divides by zero; sharer bitmaps are
/// 32 bits wide; a Hybrid machine's unbound blocks need a real protocol).
const MachineConfig& checked(const MachineConfig& cfg) {
  if (cfg.nprocs == 0 || cfg.nprocs > kMaxProcs)
    throw std::invalid_argument("Machine: nprocs must be in [1, " +
                                std::to_string(kMaxProcs) + "], got " +
                                std::to_string(cfg.nprocs));
  if (cfg.protocol == proto::Protocol::Hybrid &&
      cfg.hybrid_default == proto::Protocol::Hybrid)
    throw std::invalid_argument("Machine: hybrid_default must be WI, PU or CU");
  return cfg;
}
} // namespace

Machine::Machine(MachineConfig cfg)
    : cfg_(checked(cfg)),
      trace_(cfg.trace || cfg.obs.sink || cfg.obs.check_invariants
                 ? std::make_unique<obs::TraceLog>()
                 : nullptr),
      alloc_(cfg.nprocs),
      misses_(cfg.nprocs, counters_),
      updates_(cfg.nprocs, counters_),
      net_(q_, net::MeshTopology(cfg.nprocs), cfg.net, &counters_.net),
      hot_(cfg.obs.hot_blocks ? std::make_unique<obs::HotBlockTable>() : nullptr),
      ledger_(cfg.obs.profile
                  ? std::make_unique<obs::CycleLedger>(cfg.nprocs, q_)
                  : nullptr),
      checker_(cfg.obs.check_invariants ? std::make_unique<obs::InvariantChecker>()
                                        : nullptr),
      host_(cfg.obs.host_metrics ? std::make_unique<obs::HostPerfCollector>(
                                       cfg.obs.host_queue_sample)
                                 : nullptr),
      sharing_(cfg.obs.sharing ? std::make_unique<obs::SharingTracker>(
                                     cfg.nprocs, cfg.cu_threshold)
                               : nullptr),
      observers_{checker_.get(), sharing_.get()},
      ctx_{q_,
           net_,
           alloc_,
           counters_,
           misses_,
           updates_,
           cfg.nprocs,
           cfg.cu_threshold,
           trace_.get(),
           hot_.get(),
           observers_.any() ? &observers_ : nullptr,
           cfg.consistency,
           cfg.hybrid_default,
           cfg.protocol} {
  if (trace_) {
    if (cfg_.obs.sink) trace_->add_sink(cfg_.obs.sink);
    net_.set_trace(trace_.get());
  }
  if (hot_) {
    misses_.set_hot(hot_.get());
    updates_.set_hot(hot_.get());
  }
  if (ledger_) misses_.set_ledger(ledger_.get());
  if (host_) net_.set_host(host_.get());
  nodes_.reserve(cfg_.nprocs);
  procs_.reserve(cfg_.nprocs);
  for (NodeId i = 0; i < cfg_.nprocs; ++i) {
    nodes_.push_back(std::make_unique<proto::Node>(i, ctx_, cfg_.cache_bytes,
                                                   cfg_.wb_entries, cfg_.timings,
                                                   host_.get()));
    net_.attach(i, *nodes_.back());
    procs_.push_back(std::make_unique<cpu::Processor>(i, q_, nodes_[i]->cache_ctrl()));
    procs_.back()->cpu().set_ledger(ledger_.get());
    procs_.back()->cpu().set_progress(&progress_);
  }
  if (checker_) {
    checker_->set_alloc(&alloc_);
    for (NodeId i = 0; i < cfg_.nprocs; ++i)
      checker_->attach_node(&nodes_[i]->cache_ctrl().cache(),
                            &nodes_[i]->home_ctrl().directory(),
                            &nodes_[i]->home_ctrl().memory());
    trace_->add_sink(checker_.get());
  }
}

Cycle Machine::run(const std::vector<Program>& programs) {
  if (ran_) throw std::logic_error("Machine::run may only be called once");
  ran_ = true;
  if (programs.size() > cfg_.nprocs)
    throw std::invalid_argument("more programs than processors");

  unsigned remaining = static_cast<unsigned>(programs.size());
  for (std::size_t i = 0; i < programs.size(); ++i)
    procs_[i]->run(programs[i], [&remaining] { --remaining; });

  std::unique_ptr<obs::IntervalSampler> sampler;
  if (cfg_.obs.sample_interval > 0)
    sampler =
        std::make_unique<obs::IntervalSampler>(cfg_.obs.sample_interval, counters_);

  if (host_) host_->run_begin();
  const bool watch = cfg_.watchdog_stall_cycles > 0;
  std::uint64_t seen_progress = progress_;
  Cycle progress_cycle = q_.now();
  // One event at a time: the sampler cuts intervals at exact sim times (a
  // self-rescheduling sampler event would defeat drain-based deadlock
  // detection), the watchdog compares each event time against the last
  // progress, and the host collector sees queue depth between events.
  while (!q_.empty()) {
    const Cycle next = q_.next_time();
    if (next > cfg_.max_cycles) break;
    if (watch) {
      if (progress_ != seen_progress) {
        seen_progress = progress_;
        progress_cycle = q_.now();
      } else if (remaining != 0 &&
                 next > progress_cycle + cfg_.watchdog_stall_cycles) {
        throw DeadlockError(diagnose("watchdog: no memory operation completed for " +
                                         std::to_string(cfg_.watchdog_stall_cycles) +
                                         " cycles (livelock?)",
                                     remaining, programs.size()));
      }
    }
    if (sampler) {
      obs::ScopedHostCat t(host_.get(), obs::HostCat::ObsHooks);
      sampler->advance_to(next);
    }
    if (host_) host_->before_event(next, q_.pending());
    q_.step();
  }
  const bool drained = q_.empty();
  for (auto& p : procs_) p->rethrow_if_failed();
  if (remaining != 0) {
    throw DeadlockError(diagnose(
        drained ? "event queue drained with programs waiting (lost wakeup?)"
                : "simulated time exceeded max_cycles",
        remaining, programs.size()));
  }
  if (ctx_.observer) {
    obs::ScopedHostCat t(host_.get(), obs::HostCat::ObsHooks);
    ctx_.observer->finalize();
  }
  updates_.finalize(q_.now());
  if (ledger_) ledger_->finalize(q_.now());
  if (sampler) {
    // After finalize: termination-classified updates land in the final
    // sample, preserving "interval deltas sum to the final counters".
    sampler->finish(q_.now());
    samples_ = sampler->series();
  }
  if (host_) host_->run_end();
  return q_.now();
}

std::string Machine::diagnose(const std::string& what, unsigned remaining,
                              std::size_t nprograms) const {
  std::string msg = "simulation stalled: " + what;
  msg += " (cycle " + std::to_string(q_.now()) + "; " + std::to_string(remaining) +
         " of " + std::to_string(nprograms) + " programs unfinished)";
  msg += "\nstuck processors:";
  for (std::size_t i = 0; i < nprograms; ++i) {
    if (!procs_[i]->done()) {
      msg += ' ';
      msg += std::to_string(i);
    }
  }
  // Occupancy per node: in-flight messages addressed to it plus its cache
  // controller's queues. Quiet nodes are elided.
  msg += "\nnode occupancy (in-flight msgs, wb entries, mshrs, pending acks, "
         "outstanding ops):";
  bool any = false;
  for (NodeId i = 0; i < cfg_.nprocs; ++i) {
    const std::uint64_t inflight = net_.in_flight(i);
    const proto::CacheDebug d = nodes_[i]->cache_ctrl().debug_state();
    if (inflight == 0 && d.wb_entries == 0 && d.mshr == 0 && d.pending_acks == 0 &&
        d.outstanding == 0)
      continue;
    any = true;
    msg += "\n  node " + std::to_string(i) + ": inflight=" + std::to_string(inflight) +
           " wb=" + std::to_string(d.wb_entries) + " mshr=" + std::to_string(d.mshr) +
           " acks=" + std::to_string(d.pending_acks) +
           " outstanding=" + std::to_string(d.outstanding);
  }
  if (!any) msg += " (all quiet)";
  if (ledger_) {
    const obs::ProfileSnapshot s = ledger_->snapshot();
    msg += "\ncycle ledger: wall=" + std::to_string(s.wall);
  }
  if (trace_) {
    msg += "\nlast trace events:\n";
    msg += trace_->tail(40);
  }
  return msg;
}

std::vector<obs::HotBlockTable::Row> Machine::hot_blocks() const {
  if (!hot_) return {};
  return hot_->top(cfg_.obs.hot_top_k, &alloc_);
}

obs::HostPerfReport Machine::host_report() const {
  if (!host_) return {};
  obs::HostPerfReport r = host_->report();
  r.sim_cycles = q_.now();
  r.events_executed = q_.executed();
  r.events_scheduled = q_.scheduled();
  r.messages = counters_.net.messages + counters_.net.local;
  return r;
}

obs::SharingReport Machine::sharing_report() const {
  if (!sharing_) return {};
  return sharing_->report(&alloc_);
}

obs::ProfileSnapshot Machine::profile() const {
  if (!ledger_) return {};
  obs::ProfileSnapshot s = ledger_->snapshot();
  for (const auto& n : nodes_) {
    const mem::WriteBuffer& wb = n->cache_ctrl().write_buffer();
    s.wb_peak = std::max<std::uint64_t>(s.wb_peak, wb.peak());
    s.wb_pushes += wb.pushes();
  }
  return s;
}

Cycle Machine::run_all(const Program& program) {
  std::vector<Program> ps(cfg_.nprocs, program);
  return run(ps);
}

void Machine::poke(Addr addr, std::uint64_t value, std::size_t size) {
  assert(mem::is_shared(addr));
  const mem::BlockAddr b = mem::block_of(addr);
  const NodeId home = alloc_.home_of(b);
  mem::MemoryModule& m = nodes_[home]->home_ctrl().memory();
  m.write_word(addr, size, value);
  if (ctx_.observer) {
    // Pass the full resulting word so sub-word pokes stay consistent with
    // the checker's whole-word shadow.
    const Addr base = addr - addr % mem::kWordSize;
    ctx_.observer->on_poke(base, m.read_word(base, mem::kWordSize));
  }
}

void Machine::bind_protocol(Addr addr, std::size_t size, proto::Protocol p) {
  if (cfg_.protocol != proto::Protocol::Hybrid)
    throw std::logic_error("bind_protocol requires Protocol::Hybrid");
  alloc_.set_domain(addr, size, proto::domain_of_protocol(p));
}

std::uint64_t Machine::peek(Addr addr, std::size_t size) {
  const mem::BlockAddr b = mem::block_of(addr);
  const NodeId home = alloc_.home_of(b);
  auto& hc = nodes_[home]->home_ctrl();
  // A dirty copy (WI Exclusive / PU Private) holds the freshest data.
  if (const mem::DirEntry* e = hc.directory().find(b);
      e && (e->state == mem::DirState::Exclusive || e->state == mem::DirState::Private) &&
      e->owner != kInvalidNode) {
    if (nodes_[e->owner]->cache_ctrl().cache().find(b))
      return nodes_[e->owner]->cache_ctrl().cache().read(addr, size);
  }
  return hc.memory().read_word(addr, size);
}

} // namespace ccsim::harness
