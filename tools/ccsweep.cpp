// ccsweep: run a (protocol x construct x config) simulation grid through
// the parallel sweep engine and emit one JSON document for the whole grid.
//
//   ccsweep [--protocols WI,PU,CU] [--constructs lock,barrier,reduction]
//           [--locks tk,MCS,uc] [--barriers cb,db,tb,ct]
//           [--reductions sr,pr] [--procs 8,16,32] [--cu-threshold 2,4,8]
//           [--seeds 0x5eed,7] [--scale=X | --paper] [--jobs N]
//           [--profile] [--host-metrics] [--max-cycles N] [--out FILE]
//           [--progress] [--quiet]
//
// Flags follow the shared syntax of harness/cli.hpp: `--flag value` and
// `--flag=value` alike, strict numbers, --procs in [1, 32], --help exits
// 0. The grid is the cross product of the lists; --cu-threshold
// multiplies only CU cells (the threshold is inert under WI/PU and would
// duplicate cells), and --seeds multiplies only lock and reduction cells
// (barriers take no seed). --jobs N runs cells on N worker threads (0 = one per hardware
// thread); output is byte-identical for every N because cells are
// independent deterministic simulations emitted in submission order.
//
// Output (stdout by default): a schema-versioned document with one
// object per cell -- the same run-object schema as the benches' --json
// documents (see docs/schema.md), plus ok/error so a cell that threw
// (e.g. hit its --max-cycles deadlock backstop) is reported as a failed
// cell without aborting the sweep -- and a merged summary (counts,
// failed cell names, best cell per construct family). Exits 0 when every
// cell succeeded, 1 otherwise, 2 on usage errors.
//
// --host-metrics adds the opt-in per-cell "host" section (host ms,
// throughput, queue stats; docs/schema.md) -- host readings vary run to
// run, so documents with it are not byte-comparable. --progress paints a
// live cells-done/rate/ETA line on stderr (only when stderr is a TTY;
// --quiet suppresses it and the final summary line).
#include "harness/obs_session.hpp"
#include "harness/sweep.hpp"
#include "stats/json.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

using namespace ccsim;

namespace {

using harness::ConstructFamily;

struct Options {
  std::vector<proto::Protocol> protocols{std::begin(harness::kProtocols),
                                         std::end(harness::kProtocols)};
  std::vector<ConstructFamily> constructs{
      ConstructFamily::Lock, ConstructFamily::Barrier, ConstructFamily::Reduction};
  /// The kinds swept per family, indexed by ConstructFamily.
  std::vector<harness::Construct> kinds[3] = {
      {harness::LockKind::Ticket, harness::LockKind::Mcs, harness::LockKind::UcMcs},
      {harness::BarrierKind::Central, harness::BarrierKind::Dissemination,
       harness::BarrierKind::Tree},
      {harness::ReductionKind::Sequential, harness::ReductionKind::Parallel}};
  std::vector<unsigned> procs{16};
  std::vector<unsigned> cu_thresholds{4};
  std::vector<std::uint64_t> seeds;  ///< empty = the construct defaults
  double scale = 0.02;
  unsigned jobs = 1;
  bool profile = false;
  bool host_metrics = false;
  bool progress = false;
  bool quiet = false;
  Cycle max_cycles = 0;  ///< 0 = MachineConfig's default backstop
  std::string out = "-";
};

ConstructFamily parse_family(const std::string& s) {
  if (s == "lock") return ConstructFamily::Lock;
  if (s == "barrier") return ConstructFamily::Barrier;
  if (s == "reduction") return ConstructFamily::Reduction;
  throw std::invalid_argument("--constructs: unknown construct \"" + s +
                              "\" (lock, barrier, reduction)");
}

void usage() {
  std::printf(
      "usage: ccsweep [--protocols WI,PU,CU] [--constructs "
      "lock,barrier,reduction]\n"
      "               [--locks tk,MCS,uc] [--barriers cb,db,tb,ct]\n"
      "               [--reductions sr,pr] [--procs a,b,...]\n"
      "               [--cu-threshold a,b,...] [--seeds a,b,...]\n"
      "               [--scale X | --paper] [--jobs N] [--profile]\n"
      "               [--host-metrics] [--max-cycles N] [--out FILE]\n"
      "               [--progress] [--quiet]\n");
}

std::vector<harness::Construct> parse_kinds(std::string_view flag,
                                            ConstructFamily family,
                                            const std::string& v) {
  std::vector<harness::Construct> out;
  for (const std::string& s : harness::split_list(flag, v))
    out.push_back(harness::parse_short_tag(flag, family, s));
  return out;
}

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    std::string v;
    if (harness::take_value("--locks", argc, argv, i, v)) {
      o.kinds[0] = parse_kinds("--locks", ConstructFamily::Lock, v);
    } else if (harness::take_value("--barriers", argc, argv, i, v)) {
      o.kinds[1] = parse_kinds("--barriers", ConstructFamily::Barrier, v);
    } else if (harness::take_value("--reductions", argc, argv, i, v)) {
      o.kinds[2] = parse_kinds("--reductions", ConstructFamily::Reduction, v);
    } else if (harness::take_value("--protocols", argc, argv, i, v)) {
      o.protocols.clear();
      for (const std::string& s : harness::split_list("--protocols", v))
        o.protocols.push_back(harness::parse_protocol("--protocols", s));
    } else if (harness::take_value("--constructs", argc, argv, i, v)) {
      o.constructs.clear();
      for (const std::string& s : harness::split_list("--constructs", v))
        o.constructs.push_back(parse_family(s));
    } else if (harness::take_value("--procs", argc, argv, i, v)) {
      o.procs = harness::parse_procs_list("--procs", v);
    } else if (harness::take_value("--cu-threshold", argc, argv, i, v)) {
      o.cu_thresholds.clear();
      for (const std::string& s : harness::split_list("--cu-threshold", v))
        o.cu_thresholds.push_back(harness::parse_uint("--cu-threshold", s, 1));
    } else if (harness::take_value("--seeds", argc, argv, i, v)) {
      o.seeds.clear();
      for (const std::string& s : harness::split_list("--seeds", v))
        o.seeds.push_back(harness::parse_u64("--seeds", s));
    } else if (harness::take_value("--scale", argc, argv, i, v)) {
      o.scale = harness::parse_scale("--scale", v);
    } else if (a == "--paper") {
      o.scale = 1.0;
    } else if (harness::take_value("--jobs", argc, argv, i, v)) {
      o.jobs = harness::parse_uint("--jobs", v);
    } else if (a == "--profile") {
      o.profile = true;
    } else if (a == "--host-metrics") {
      o.host_metrics = true;
    } else if (a == "--progress") {
      o.progress = true;
    } else if (a == "--quiet") {
      o.quiet = true;
    } else if (harness::take_value("--max-cycles", argc, argv, i, v)) {
      o.max_cycles = harness::parse_u64("--max-cycles", v, 1);
    } else if (harness::take_value("--out", argc, argv, i, v)) {
      o.out = v;
    } else if (harness::is_help(a)) {
      usage();
      std::exit(0);
    } else {
      throw std::invalid_argument("unknown argument: " + a);
    }
  }
  return o;
}

std::string cell_name(const harness::Construct& c, proto::Protocol proto,
                      unsigned p, std::optional<unsigned> threshold,
                      std::optional<std::uint64_t> seed) {
  std::string s{harness::to_string(c.family)};
  s += '/';
  s += harness::short_tag(c);
  s += '/';
  s += proto::to_string(proto);
  if (threshold) s += "/t" + std::to_string(*threshold);
  s += "/p" + std::to_string(p);
  if (seed) s += "/s" + std::to_string(*seed);
  return s;
}

std::vector<harness::SweepJob> build_grid(const Options& o) {
  // Seed lists multiply only the constructs that consume a seed; an empty
  // list means "one cell with the construct's default seed".
  std::vector<std::optional<std::uint64_t>> seeds;
  if (o.seeds.empty())
    seeds.push_back(std::nullopt);
  else
    for (std::uint64_t s : o.seeds) seeds.push_back(s);
  const std::vector<std::optional<std::uint64_t>> no_seed{std::nullopt};

  std::vector<harness::SweepJob> jobs;
  for (proto::Protocol proto : o.protocols) {
    // The CU threshold is inert under WI/PU; sweeping it there would
    // emit duplicate cells under different names.
    std::vector<std::optional<unsigned>> thresholds;
    if (proto == proto::Protocol::CU)
      for (unsigned t : o.cu_thresholds) thresholds.push_back(t);
    else
      thresholds.push_back(std::nullopt);

    for (const auto& threshold : thresholds) {
      for (unsigned p : o.procs) {
        harness::MachineConfig cfg;
        cfg.protocol = proto;
        cfg.nprocs = p;
        cfg.cu_threshold = threshold.value_or(4);
        cfg.obs.profile = o.profile;
        cfg.obs.host_metrics = o.host_metrics;
        if (o.max_cycles != 0) cfg.max_cycles = o.max_cycles;
        for (ConstructFamily fam : o.constructs) {
          for (const harness::Construct& c : o.kinds[static_cast<std::size_t>(fam)]) {
            for (const auto& seed : fam == ConstructFamily::Barrier ? no_seed : seeds)
              jobs.push_back(harness::sweep_cell(cell_name(c, proto, p, threshold, seed),
                                                 c, cfg, o.scale, seed));
          }
        }
      }
    }
  }
  return jobs;
}

void write_doc(std::ostream& os, const Options& o,
               const std::vector<harness::SweepJob>& jobs,
               const std::vector<harness::SweepResult>& results) {
  stats::JsonWriter w(os);
  w.begin_object();
  w.key("schema").value(std::uint64_t{1});
  w.key("tool").value("ccsweep");
  w.key("scale").value(o.scale);

  w.key("grid").begin_object();
  w.key("protocols").begin_array();
  for (proto::Protocol p : o.protocols) w.value(proto::to_string(p));
  w.end_array();
  w.key("constructs").begin_array();
  for (harness::ConstructFamily f : o.constructs) w.value(harness::to_string(f));
  w.end_array();
  w.key("procs").begin_array();
  for (unsigned p : o.procs) w.value(p);
  w.end_array();
  w.key("cu_thresholds").begin_array();
  for (unsigned t : o.cu_thresholds) w.value(t);
  w.end_array();
  if (!o.seeds.empty()) {
    w.key("seeds").begin_array();
    for (std::uint64_t s : o.seeds) w.value(s);
    w.end_array();
  }
  w.key("cells").value(static_cast<std::uint64_t>(jobs.size()));
  w.end_object();

  harness::write_sweep_cells(w, results);

  // Merged summary: counts, failures by name, and the fastest cell per
  // construct family (ties resolve to the earliest submitted cell).
  std::size_t ok = 0;
  std::vector<const harness::SweepResult*> failed;
  std::uint64_t total_cycles = 0;
  const harness::SweepResult* best[3] = {nullptr, nullptr, nullptr};
  for (std::size_t i = 0; i < results.size(); ++i) {
    const harness::SweepResult& r = results[i];
    if (!r.ok) {
      failed.push_back(&r);
      continue;
    }
    ++ok;
    total_cycles += r.run.cycles;
    const auto fam = static_cast<std::size_t>(jobs[i].family);
    if (best[fam] == nullptr ||
        r.run.avg_latency < best[fam]->run.avg_latency)
      best[fam] = &r;
  }
  w.key("summary").begin_object();
  w.key("cells").value(static_cast<std::uint64_t>(results.size()));
  w.key("ok").value(static_cast<std::uint64_t>(ok));
  w.key("failed").value(static_cast<std::uint64_t>(failed.size()));
  if (!failed.empty()) {
    w.key("failed_cells").begin_array();
    for (const harness::SweepResult* r : failed) {
      w.begin_object();
      w.key("name").value(r->name);
      w.key("fail_kind").value(harness::to_string(r->fail));
      w.key("error").value(r->error);
      w.end_object();
    }
    w.end_array();
  }
  w.key("total_cycles").value(total_cycles);
  w.key("best").begin_object();
  for (std::size_t f = 0; f < 3; ++f) {
    if (best[f] == nullptr) continue;
    w.key(harness::to_string(static_cast<harness::ConstructFamily>(f)));
    w.begin_object();
    w.key("name").value(best[f]->name);
    w.key("avg_latency").value(best[f]->run.avg_latency);
    w.end_object();
  }
  w.end_object();
  w.end_object();

  w.end_object();
  os << '\n';
}

} // namespace

int main(int argc, char** argv) {
  try {
    const Options o = parse_args(argc, argv);
    const std::vector<harness::SweepJob> jobs = build_grid(o);
    const std::vector<harness::SweepResult> results =
        harness::run_sweep_reported(jobs, o.jobs, o.progress && !o.quiet);
    const std::size_t failed = static_cast<std::size_t>(std::count_if(
        results.begin(), results.end(), [](const auto& r) { return !r.ok; }));

    if (o.out == "-") {
      write_doc(std::cout, o, jobs, results);
    } else {
      std::ofstream os(o.out);
      if (!os) throw std::runtime_error("cannot open output file: " + o.out);
      write_doc(os, o, jobs, results);
      if (!o.quiet)
        std::fprintf(stderr, "wrote %zu cell(s) to %s (%zu failed)\n",
                     results.size(), o.out.c_str(), failed);
    }
    return failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    usage();
    return 2;
  }
}
