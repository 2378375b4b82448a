// Shared scaffolding for the figure-reproduction benches.
#pragma once

#include "ccsim.hpp"
#include "harness/obs_session.hpp"
#include "harness/sweep.hpp"

#include <cstdio>
#include <initializer_list>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

namespace ccbench {

using namespace ccsim;

using harness::kProtocols;

/// "tk/i" style series label, matching the paper's bar labels ("tk", "MCS",
/// "uc" x "i", "u", "c"); "h" = hybrid (abl_hybrid only, see kProtocols).
inline std::string series_label(std::string_view algo, proto::Protocol p) {
  std::string s{algo};
  s += '/';
  switch (p) {
    case proto::Protocol::WI: s += 'i'; break;
    case proto::Protocol::PU: s += 'u'; break;
    case proto::Protocol::CU: s += 'c'; break;
    case proto::Protocol::Hybrid: s += 'h'; break;
  }
  return s;
}

/// series_label for one of the paper's constructs, by its short tag.
inline std::string series_label(const harness::Construct& c, proto::Protocol p) {
  return series_label(harness::short_tag(c), p);
}

inline void print_table(const harness::Table& t, const harness::BenchOptions& o) {
  if (o.csv)
    t.print_csv(std::cout);
  else
    t.print(std::cout);
}

/// Run a figure sweep's cells. With --jobs != 1 and no obs flags the
/// cells run concurrently on the sweep engine; obs output (one shared
/// trace sink, per-run streaming) is inherently ordered, so obs flags
/// force the sequential path (with a stderr note). Both paths contain
/// per-cell failures; results come back in submission order either way.
inline std::vector<harness::SweepResult> run_cells(
    const std::vector<harness::SweepJob>& jobs, const harness::BenchOptions& opts,
    harness::ObsSession& obs) {
  if (opts.jobs != 1 && obs.enabled())
    std::fprintf(stderr,
                 "note: observability flags stream per-run output; "
                 "running with --jobs=1\n");
  if (opts.jobs != 1 && !obs.enabled()) {
    harness::SweepOptions so;
    so.jobs = opts.jobs;
    return harness::run_sweep(jobs, so);
  }
  std::vector<harness::SweepResult> out;
  out.reserve(jobs.size());
  for (const harness::SweepJob& j : jobs) {
    harness::SweepJob job = j;
    obs.configure(job.machine, job.name);
    out.push_back(harness::run_sweep_job(job));
    if (out.back().ok) obs.record(out.back().run);
  }
  return out;
}

/// Table cell for one sweep result ("err" for a contained failure).
inline std::string cell_num(const harness::SweepResult& r, int precision = 1) {
  return r.ok ? harness::Table::num(r.run.avg_latency, precision)
              : std::string("err");
}

/// After the table is printed: report failed cells on stderr and exit
/// nonzero (throwing matches bench_main's error path).
inline void check_failures(const std::vector<harness::SweepResult>& results) {
  if (const std::size_t failed = harness::report_failures(results); failed != 0)
    throw std::runtime_error(std::to_string(failed) + " cell(s) failed");
}

/// A latency figure (8, 11, 14): one row per construct x protocol, one
/// column per --procs value, each cell the paper's average latency.
inline void latency_figure(const harness::BenchOptions& opts, harness::ObsSession& obs,
                           std::string first_header,
                           std::initializer_list<harness::Construct> kinds) {
  std::vector<std::string> headers{std::move(first_header)};
  for (unsigned p : opts.procs) headers.push_back("P=" + std::to_string(p));
  harness::Table t(std::move(headers));

  std::vector<harness::SweepJob> jobs;
  for (const harness::Construct& k : kinds)
    for (proto::Protocol proto : kProtocols)
      for (unsigned p : opts.procs)
        jobs.push_back(harness::sweep_cell(
            series_label(k, proto) + "/P" + std::to_string(p), k,
            {.nprocs = p, .protocol = proto}, opts.scale));

  const auto results = run_cells(jobs, opts, obs);
  auto next = results.begin();
  for (const harness::Construct& k : kinds) {
    for (proto::Protocol proto : kProtocols) {
      std::vector<std::string> row{series_label(k, proto)};
      for (std::size_t i = 0; i < opts.procs.size(); ++i)
        row.push_back(cell_num(*next++));
      t.add_row(std::move(row));
    }
  }
  print_table(t, opts);
  check_failures(results);
}

/// A traffic figure (9/10, 12/13, 15/16): one row per construct x
/// protocol at the largest --procs value, its cells the categorized miss
/// or update counts. Update traffic exists only under PU and CU.
enum class Traffic { Misses, Updates };

inline void traffic_figure(const harness::BenchOptions& opts, harness::ObsSession& obs,
                           std::string first_header,
                           std::initializer_list<harness::Construct> kinds,
                           Traffic traffic) {
  const bool misses = traffic == Traffic::Misses;
  std::vector<std::string> headers{std::move(first_header)};
  for (const auto& h : misses ? harness::miss_headers() : harness::update_headers())
    headers.push_back(h);
  harness::Table t(std::move(headers));

  std::vector<harness::SweepJob> jobs;
  for (const harness::Construct& k : kinds)
    for (proto::Protocol proto : kProtocols)
      if (misses || proto != proto::Protocol::WI)
        jobs.push_back(harness::sweep_cell(
            series_label(k, proto), k, {.nprocs = opts.procs.back(), .protocol = proto},
            opts.scale));

  const auto results = run_cells(jobs, opts, obs);
  for (const harness::SweepResult& r : results) {
    const stats::Counters& c = r.run.counters;
    std::vector<std::string> row{r.name};
    const std::vector<std::string> cells = !r.ok    ? std::vector<std::string>{"err"}
                                           : misses ? harness::miss_cells(c.misses)
                                                    : harness::update_cells(c.updates);
    row.insert(row.end(), cells.begin(), cells.end());
    t.add_row(std::move(row));
  }
  print_table(t, opts);
  check_failures(results);
}

/// Strip a leading path and a trailing extension from argv[0] to name the
/// metrics document after the bench binary.
inline std::string bench_name(const char* argv0) {
  std::string s = argv0 ? argv0 : "bench";
  if (const auto slash = s.find_last_of("/\\"); slash != std::string::npos)
    s.erase(0, slash + 1);
  if (const auto dot = s.rfind('.'); dot != std::string::npos && dot > 0)
    s.erase(dot);
  return s;
}

inline int bench_main(int argc, char** argv, const char* title,
                      void (*body)(const harness::BenchOptions&,
                                   harness::ObsSession&)) {
  try {
    const harness::BenchOptions opts = harness::parse_bench_args(argc, argv);
    const std::string name = bench_name(argc > 0 ? argv[0] : nullptr);
    if (opts.help) {
      std::printf("%s", harness::bench_usage(name).c_str());
      return 0;
    }
    harness::ObsSession obs(opts.obs, name);
    if (!opts.csv) {
      std::printf("%s\n", title);
      std::printf("(scale=%.3g of the paper's iteration counts; --paper for full)\n\n",
                  opts.scale);
    }
    body(opts, obs);
    obs.finish();
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

} // namespace ccbench
