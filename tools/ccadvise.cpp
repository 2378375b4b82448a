// ccadvise: cross-validate the sharing-pattern advisor against measured
// protocol rankings.
//
//   ccadvise [--procs N] [--scale X] [--jobs N] [--out FILE]
//            [--tie PCT] [--threshold PCT] [--progress] [--quiet]
//
// Flags follow the shared syntax of harness/cli.hpp: `--flag value` and
// `--flag=value` alike, strict numbers, --procs in [1, 32], --help exits 0.
//
// Runs the paper's nine synchronization constructs (three locks, four
// barriers, two reductions -- figures 8, 11, 14) under WI / PU / CU.
// The WI run of each construct carries the sharing tracker
// (obs/sharing.hpp); its classifier output feeds the cost model, whose
// recommended protocol is then compared against the *measured* best
// static protocol for that construct (lowest simulated cycle count,
// with anything within --tie percent of the minimum counted as tied for
// best, default 2%). The advisor rides on WI because write-interval
// reader-sets are protocol-invariant: the same program produces the
// same advice no matter which protocol observed it, and validating that
// advice against ground truth from all three protocols is exactly the
// check this tool automates.
//
// Output: an aligned table on stdout (per construct: measured Mcycles
// under each protocol, the tie-set of measured-best protocols, the
// advisor's pick, and whether they agree) plus a summary line, and with
// --out a JSON document (schema in docs/schema.md) embedding each WI
// run's full "sharing" section. Exit codes: 0 = every cell ran and the
// advisor agreed with the measured best on at least --threshold percent
// of constructs (default 80); 1 = a cell failed or agreement fell below
// the threshold; 2 = usage error.
#include "harness/obs_session.hpp"
#include "harness/sweep.hpp"
#include "stats/json.hpp"
#include "stats/table.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

using namespace ccsim;

namespace {

using harness::kProtocols;

struct Options {
  unsigned procs = 16;
  double scale = 0.02;
  unsigned jobs = 1;
  std::string out;        ///< JSON report path ("" = table only)
  double tie_pct = 2.0;   ///< cycles within this % of min count as tied-best
  double threshold = 80;  ///< minimum agreement % for exit code 0
  bool progress = false;
  bool quiet = false;
};

void usage() {
  std::printf(
      "usage: ccadvise [--procs N] [--scale X] [--jobs N] [--out FILE]\n"
      "                [--tie PCT] [--threshold PCT] [--progress] [--quiet]\n");
}

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    std::string v;
    if (harness::take_value("--procs", argc, argv, i, v)) {
      o.procs = harness::parse_procs("--procs", v);
    } else if (harness::take_value("--scale", argc, argv, i, v)) {
      o.scale = harness::parse_scale("--scale", v);
    } else if (harness::take_value("--jobs", argc, argv, i, v)) {
      o.jobs = harness::parse_uint("--jobs", v);
    } else if (harness::take_value("--out", argc, argv, i, v)) {
      o.out = v;
    } else if (harness::take_value("--tie", argc, argv, i, v)) {
      o.tie_pct = harness::parse_percent("--tie", v);
    } else if (harness::take_value("--threshold", argc, argv, i, v)) {
      o.threshold = harness::parse_percent("--threshold", v);
    } else if (a == "--progress") {
      o.progress = true;
    } else if (a == "--quiet") {
      o.quiet = true;
    } else if (harness::is_help(a)) {
      usage();
      std::exit(0);
    } else {
      throw std::invalid_argument("unknown argument: " + a);
    }
  }
  return o;
}

/// A construct's row label, e.g. "lock/ticket".
std::string construct_name(const harness::Construct& c) {
  std::string s{harness::to_string(c.family)};
  s += '/';
  switch (c.family) {
    case harness::ConstructFamily::Lock: s += harness::to_string(c.lock); break;
    case harness::ConstructFamily::Barrier: s += harness::to_string(c.barrier); break;
    case harness::ConstructFamily::Reduction: s += harness::to_string(c.reduction); break;
  }
  return s;
}

/// Jobs in construct-major order: results[c * 3 + p] is kConstructs[c]
/// under kProtocols[p]. Only the WI run carries the sharing tracker --
/// that is the run whose report drives the advice, and leaving it off the
/// PU/CU runs keeps their cycle measurements a pure ground truth.
std::vector<harness::SweepJob> build_matrix(const Options& o) {
  std::vector<harness::SweepJob> jobs;
  for (const harness::Construct& c : harness::kConstructs) {
    for (proto::Protocol proto : kProtocols) {
      harness::MachineConfig cfg;
      cfg.protocol = proto;
      cfg.nprocs = o.procs;
      cfg.obs.sharing = proto == proto::Protocol::WI;
      jobs.push_back(harness::sweep_cell(
          construct_name(c) + "/" + std::string(proto::to_string(proto)), c, cfg,
          o.scale));
    }
  }
  return jobs;
}

/// The advisor-vs-measurement verdict for one construct.
struct Verdict {
  std::string name;
  bool ok = false;         ///< all three runs completed
  std::string error;       ///< first failure text when !ok
  double cycles[3] = {};   ///< measured cycles, indexed like kProtocols
  std::vector<proto::Protocol> best;  ///< measured tie-set (ties allowed)
  proto::Protocol advised = proto::Protocol::WI;
  bool agree = false;      ///< advised is in the measured tie-set
  obs::SharingReport sharing;  ///< the WI run's report
};

Verdict judge(std::string name, const harness::SweepResult* runs,
              double tie_pct) {
  Verdict v;
  v.name = std::move(name);
  for (int p = 0; p < 3; ++p) {
    if (!runs[p].ok) {
      v.error = runs[p].name + ": " + runs[p].error;
      return v;
    }
    v.cycles[p] = static_cast<double>(runs[p].run.cycles);
  }
  v.ok = true;
  v.sharing = runs[0].run.sharing;
  v.advised = v.sharing.recommended;
  double min = v.cycles[0];
  for (double cyc : v.cycles) min = std::min(min, cyc);
  const double cutoff = min * (1.0 + tie_pct / 100.0);
  for (int p = 0; p < 3; ++p)
    if (v.cycles[p] <= cutoff) v.best.push_back(kProtocols[p]);
  for (proto::Protocol b : v.best) v.agree |= b == v.advised;
  return v;
}

std::string tie_set_string(const std::vector<proto::Protocol>& best) {
  std::string s;
  for (proto::Protocol p : best) {
    if (!s.empty()) s += '/';
    s += proto::to_string(p);
  }
  return s;
}

void print_table(std::ostream& os, const std::vector<Verdict>& verdicts) {
  stats::Table t = stats::Table::figure({"construct", "WI Mcyc", "PU Mcyc",
                                         "CU Mcyc", "measured", "advised",
                                         "agree"});
  for (const Verdict& v : verdicts) {
    if (!v.ok) {
      t.add_row({v.name, "-", "-", "-", "-", "-", "FAILED"});
      continue;
    }
    t.add_row({v.name, stats::Table::num(v.cycles[0] * 1e-6, 2),
               stats::Table::num(v.cycles[1] * 1e-6, 2),
               stats::Table::num(v.cycles[2] * 1e-6, 2), tie_set_string(v.best),
               std::string(proto::to_string(v.advised)),
               v.agree ? "yes" : "NO"});
  }
  t.print(os);
}

void write_report(std::ostream& os, const Options& o,
                  const std::vector<Verdict>& verdicts, std::size_t agreed,
                  double agreement, bool pass) {
  stats::JsonWriter w(os);
  w.begin_object();
  w.key("schema").value(std::uint64_t{1});
  w.key("tool").value("ccadvise");
  w.key("procs").value(o.procs);
  w.key("scale").value(o.scale);
  w.key("tie_pct").value(o.tie_pct);
  w.key("threshold_pct").value(o.threshold);
  w.key("constructs").begin_array();
  for (const Verdict& v : verdicts) {
    w.begin_object();
    w.key("name").value(v.name);
    w.key("ok").value(v.ok);
    if (!v.ok) {
      w.key("error").value(v.error);
      w.end_object();
      continue;
    }
    w.key("cycles").begin_object();
    for (int p = 0; p < 3; ++p)
      w.key(std::string(proto::to_string(kProtocols[p]))).value(v.cycles[p]);
    w.end_object();
    w.key("measured_best").begin_array();
    for (proto::Protocol b : v.best)
      w.value(std::string(proto::to_string(b)));
    w.end_array();
    w.key("advised").value(std::string(proto::to_string(v.advised)));
    w.key("agree").value(v.agree);
    w.key("sharing").begin_object();
    harness::write_sharing_fields(w, v.sharing);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.key("summary").begin_object();
  w.key("constructs").value(static_cast<std::uint64_t>(verdicts.size()));
  w.key("agreed").value(static_cast<std::uint64_t>(agreed));
  w.key("agreement_pct").value(agreement);
  w.key("pass").value(pass);
  w.end_object();
  w.end_object();
  os << '\n';
}

} // namespace

int main(int argc, char** argv) {
  try {
    const Options o = parse_args(argc, argv);
    const std::vector<harness::SweepJob> jobs = build_matrix(o);
    const std::vector<harness::SweepResult> results =
        harness::run_sweep_reported(jobs, o.jobs, o.progress && !o.quiet);

    std::vector<Verdict> verdicts;
    std::size_t agreed = 0;
    bool any_failed = false;
    for (std::size_t c = 0; c < std::size(harness::kConstructs); ++c) {
      Verdict v = judge(construct_name(harness::kConstructs[c]), &results[c * 3],
                        o.tie_pct);
      any_failed |= !v.ok;
      agreed += v.agree;
      verdicts.push_back(std::move(v));
    }
    // A failed construct counts against agreement: the advisor cannot be
    // validated on a cell without ground truth.
    const double agreement =
        verdicts.empty() ? 0.0
                         : 100.0 * static_cast<double>(agreed) /
                               static_cast<double>(verdicts.size());
    const bool pass = !any_failed && agreement >= o.threshold;

    if (!o.quiet) {
      print_table(std::cout, verdicts);
      std::printf("agreement: %zu/%zu constructs (%.1f%%), threshold %.0f%% -> %s\n",
                  agreed, verdicts.size(), agreement, o.threshold,
                  pass ? "PASS" : "FAIL");
    }
    if (!o.out.empty()) {
      std::ofstream os(o.out);
      if (!os) throw std::runtime_error("cannot open output file: " + o.out);
      write_report(os, o, verdicts, agreed, agreement, pass);
      if (!o.quiet)
        std::fprintf(stderr, "wrote advisor report to %s\n", o.out.c_str());
    }
    return pass ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    usage();
    return 2;
  }
}
