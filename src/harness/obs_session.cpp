#include "harness/obs_session.hpp"

#include "harness/machine.hpp"
#include "obs/jsonl_sink.hpp"
#include "obs/perfetto_sink.hpp"
#include "stats/report.hpp"

#include <cinttypes>
#include <cstdio>
#include <iostream>
#include <stdexcept>
#include <utility>

namespace ccsim::harness {

ObsSession::ObsSession(ObsOptions opts, std::string name)
    : opts_(std::move(opts)), name_(std::move(name)) {
  if (opts_.trace_path.empty()) return;
  trace_file_.open(opts_.trace_path);
  if (!trace_file_)
    throw std::runtime_error("cannot open trace file: " + opts_.trace_path);
  switch (opts_.trace_format) {
    case obs::TraceFormat::Ring:
      sink_ = std::make_unique<obs::TextSink>(trace_file_);
      break;
    case obs::TraceFormat::Jsonl:
      sink_ = std::make_unique<obs::JsonlSink>(trace_file_);
      break;
    case obs::TraceFormat::Perfetto:
      sink_ = std::make_unique<obs::PerfettoSink>(trace_file_);
      break;
  }
}

ObsSession::~ObsSession() {
  try {
    finish();
  } catch (...) {
    // Destructors must not throw; an explicit finish() reports the error.
  }
}

void ObsSession::configure(MachineConfig& cfg, std::string label) {
  label_ = std::move(label);
  cfg.obs.sample_interval = opts_.sample_interval;
  cfg.obs.hot_blocks = !opts_.json_path.empty();
  cfg.obs.hot_top_k = opts_.hot_top_k;
  cfg.obs.sink = sink_.get();
  cfg.obs.profile = opts_.profile;
  cfg.obs.host_metrics = opts_.host_metrics;
  cfg.obs.sharing = opts_.sharing;
  if (sink_) sink_->begin_run(label_);
}

void ObsSession::record(const RunResult& r) {
  if (sink_) {
    if (!r.samples.empty()) sink_->on_samples(r.samples);
    if (r.profile.enabled()) sink_->on_profile(r.profile);
    if (r.sharing.enabled()) sink_->on_sharing(r.sharing);
  }
  if (opts_.profile && r.profile.enabled()) {
    std::cout << "[" << label_ << "]\n";
    stats::print_profile(std::cout, r.profile);
    std::cout << '\n';
  }
  if (opts_.host_metrics && r.host.enabled()) {
    std::cout << "[" << label_ << "]\n";
    stats::print_host(std::cout, r.host);
    std::cout << '\n';
  }
  if (opts_.sharing && r.sharing.enabled()) {
    std::cout << "[" << label_ << "]\n";
    stats::print_sharing(std::cout, r.sharing);
    std::cout << '\n';
  }
  if (!opts_.json_path.empty()) runs_.push_back({label_, r});
}

void ObsSession::finish() {
  if (finished_) return;
  finished_ = true;
  if (sink_) {
    sink_->finish();
    trace_file_.close();
  }
  if (opts_.json_path.empty()) return;
  std::ofstream js(opts_.json_path);
  if (!js)
    throw std::runtime_error("cannot open metrics file: " + opts_.json_path);
  stats::JsonWriter w(js);
  w.begin_object();
  w.key("bench").value(name_);
  w.key("runs").begin_array();
  for (const Entry& e : runs_) write_run_json(w, e.label, e.result);
  w.end_array();
  w.end_object();
  js << '\n';
}

void write_run_json(stats::JsonWriter& w, const std::string& label,
                    const RunResult& r) {
  w.begin_object();
  w.key("label").value(label);
  write_run_fields(w, r);
  w.end_object();
}

void write_run_fields(stats::JsonWriter& w, const RunResult& r) {
  w.key("cycles").value(r.cycles);
  w.key("avg_latency").value(r.avg_latency);
  if (r.invariant_checks != 0)
    w.key("invariant_checks").value(r.invariant_checks);
  w.key("counters").raw(stats::to_json(r.counters));
  if (r.latency.count() != 0) {
    w.key("latency");
    stats::histogram_to_json(w, r.latency);
  }

  if (!r.samples.empty()) {
    w.key("samples").begin_object();
    w.key("interval").value(r.samples.interval);
    w.key("data").begin_array();
    for (const obs::Sample& s : r.samples.samples) {
      w.begin_object();
      w.key("begin").value(s.begin);
      w.key("end").value(s.end);
      w.key("counters").raw(stats::to_json(s.delta));
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }

  if (!r.hot.empty()) {
    w.key("hot_blocks").begin_array();
    for (const obs::HotBlockTable::Row& row : r.hot) {
      char addr[24];
      std::snprintf(addr, sizeof addr, "0x%" PRIx64,
                    static_cast<std::uint64_t>(row.base));
      w.begin_object();
      w.key("addr").value(addr);
      if (!row.name.empty()) w.key("name").value(row.name);
      w.key("score").value(row.cell.score());
      w.key("misses").begin_object();
      for (std::size_t i = 0; i < stats::kMissClasses; ++i) {
        if (row.cell.misses[i] == 0) continue;
        w.key(stats::to_string(static_cast<stats::MissClass>(i)))
            .value(row.cell.misses[i]);
      }
      w.end_object();
      w.key("updates").begin_object();
      for (std::size_t i = 0; i < stats::kUpdateClasses; ++i) {
        if (row.cell.updates[i] == 0) continue;
        w.key(stats::to_string(static_cast<stats::UpdateClass>(i)))
            .value(row.cell.updates[i]);
      }
      w.end_object();
      w.key("invals").value(row.cell.invals);
      w.key("home_txns").value(row.cell.home_txns);
      w.end_object();
    }
    w.end_array();
  }

  if (r.profile.enabled()) {
    const auto totals = r.profile.totals();
    w.key("profile").begin_object();
    w.key("wall").value(r.profile.wall);
    w.key("conserved").value(r.profile.conserved());
    w.key("totals").begin_object();
    for (std::size_t i = 0; i < obs::kCycleCats; ++i)
      w.key(obs::to_string(static_cast<obs::CycleCat>(i))).value(totals[i]);
    w.end_object();
    w.key("per_proc").begin_array();
    for (const auto& proc : r.profile.per_proc) {
      w.begin_array();
      for (Cycle c : proc) w.value(c);
      w.end_array();
    }
    w.end_array();
    w.key("phases").begin_object();
    for (std::size_t i = 0; i < obs::kSyncPhases; ++i) {
      if (r.profile.phases[i].count() == 0) continue;
      w.key(obs::to_string(static_cast<obs::SyncPhase>(i)));
      stats::histogram_to_json(w, r.profile.phases[i]);
    }
    w.end_object();
    w.key("wb_peak").value(r.profile.wb_peak);
    w.key("wb_pushes").value(r.profile.wb_pushes);
    w.end_object();
  }

  if (r.sharing.enabled()) {
    w.key("sharing").begin_object();
    write_sharing_fields(w, r.sharing);
    w.end_object();
  }

  if (r.host.enabled()) {
    w.key("host").begin_object();
    write_host_fields(w, r.host);
    w.end_object();
  }
}

void write_sweep_cells(stats::JsonWriter& w, const std::vector<SweepResult>& results) {
  w.key("cells").begin_array();
  for (const SweepResult& r : results) {
    w.begin_object();
    w.key("name").value(r.name);
    w.key("ok").value(r.ok);
    if (r.ok) {
      write_run_fields(w, r.run);
    } else {
      w.key("fail_kind").value(to_string(r.fail));
      w.key("error").value(r.error);
    }
    w.end_object();
  }
  w.end_array();
}

void write_sharing_fields(stats::JsonWriter& w, const obs::SharingReport& s) {
  w.key("schema").value(obs::SharingReport::kSchema);
  w.key("nprocs").value(static_cast<std::uint64_t>(s.nprocs));
  w.key("recommended").value(std::string(proto::to_string(s.recommended)));
  w.key("projected_cost").begin_object();
  w.key("WI").value(s.total_wi);
  w.key("PU").value(s.total_pu);
  w.key("CU").value(s.total_cu);
  w.end_object();
  w.key("patterns").begin_object();
  for (std::size_t i = 0; i < obs::kSharingPatterns; ++i) {
    if (s.pattern_blocks[i] == 0) continue;
    w.key(std::string(obs::to_string(static_cast<obs::SharingPattern>(i))))
        .value(s.pattern_blocks[i]);
  }
  w.end_object();
  w.key("blocks").begin_array();
  for (const obs::SharingReport::Row& row : s.blocks) {
    char addr[24];
    std::snprintf(addr, sizeof addr, "0x%" PRIx64,
                  static_cast<std::uint64_t>(row.base));
    w.begin_object();
    w.key("addr").value(addr);
    if (!row.name.empty()) w.key("name").value(row.name);
    w.key("pattern").value(std::string(obs::to_string(row.pattern)));
    w.key("accessors").value(static_cast<std::uint64_t>(row.accessors));
    w.key("readers").value(static_cast<std::uint64_t>(row.reader_count));
    w.key("writers").value(static_cast<std::uint64_t>(row.writer_count));
    w.key("reads").value(row.reads);
    w.key("writes").value(row.writes);
    w.key("intervals").value(row.intervals);
    w.key("reader_episodes").value(row.reader_episodes);
    w.key("avg_interval_readers").value(row.avg_interval_readers());
    w.key("max_interval_readers").value(row.max_interval_readers);
    w.key("runs").value(row.runs);
    w.key("max_run").value(row.max_run);
    w.key("handoffs").value(row.handoffs);
    w.key("migratory_handoffs").value(row.migratory_handoffs);
    w.key("invals_sent").value(row.invals_sent);
    w.key("writable_grants").value(row.writable_grants);
    w.key("updates").begin_object();
    w.key("delivered").value(row.updates_delivered);
    w.key("wasted").value(row.updates_wasted);
    w.key("dropped").value(row.updates_dropped);
    w.end_object();
    w.key("replay").begin_object();
    w.key("pu_updates").value(row.pu_updates);
    w.key("cu_updates").value(row.cu_updates);
    w.key("cu_refetches").value(row.cu_refetches);
    w.end_object();
    w.key("word_disjoint").value(row.word_disjoint);
    w.key("cost").begin_object();
    w.key("WI").value(row.cost_wi);
    w.key("PU").value(row.cost_pu);
    w.key("CU").value(row.cost_cu);
    w.end_object();
    w.key("best").value(std::string(proto::to_string(row.best)));
    w.end_object();
  }
  w.end_array();
  w.key("allocs").begin_array();
  for (const obs::SharingReport::Alloc& a : s.allocs) {
    w.begin_object();
    w.key("name").value(a.name);
    w.key("blocks").value(static_cast<std::uint64_t>(a.blocks));
    w.key("pattern").value(std::string(obs::to_string(a.pattern)));
    w.key("reads").value(a.reads);
    w.key("writes").value(a.writes);
    w.key("invals_sent").value(a.invals_sent);
    w.key("updates_wasted").value(a.updates_wasted);
    w.key("cost").begin_object();
    w.key("WI").value(a.cost_wi);
    w.key("PU").value(a.cost_pu);
    w.key("CU").value(a.cost_cu);
    w.end_object();
    w.key("best").value(std::string(proto::to_string(a.best)));
    w.end_object();
  }
  w.end_array();
}

void write_host_fields(stats::JsonWriter& w, const obs::HostPerfReport& h) {
  w.key("schema").value(obs::HostPerfReport::kSchema);
  w.key("ms").value(h.ms());
  w.key("sim_cycles").value(h.sim_cycles);
  w.key("events").value(h.events_executed);
  w.key("events_scheduled").value(h.events_scheduled);
  w.key("cycles_per_sec").value(h.cycles_per_sec());
  w.key("events_per_sec").value(h.events_per_sec());
  w.key("queue").begin_object();
  w.key("depth");
  stats::histogram_to_json(w, h.queue_depth);
  w.key("peak").value(h.queue_peak);
  w.key("sample_interval").value(h.queue_sample_interval);
  w.end_object();
  w.key("alloc").begin_object();
  w.key("messages").value(h.messages);
  w.key("frames").value(h.frames);
  w.end_object();
  w.key("subsystems").begin_object();
  for (std::size_t i = 0; i < obs::kHostCats; ++i) {
    const auto c = static_cast<obs::HostCat>(i);
    w.key(std::string(obs::to_string(c)) + "_ns").value(h.ns_by[i]);
  }
  w.end_object();
}

} // namespace ccsim::harness
