// Table formatting / CLI parsing used by the figure benches.
#include "harness/cli.hpp"
#include "harness/figure.hpp"
#include "harness/machine.hpp"
#include "harness/sweep.hpp"
#include "stats/counters.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

namespace {

using namespace ccsim;
using harness::BenchOptions;
using harness::Table;

TEST(Table, AlignsColumns) {
  Table t({"name", "p=1", "p=32"});
  t.add_row({"ticket/WI", "12.5", "2657.1"});
  t.add_row({"MCS/CU", "7.0", "190.0"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("ticket/WI"), std::string::npos);
  EXPECT_NE(out.find("2657.1"), std::string::npos);
  // Header, rule, two rows.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
}

TEST(Table, CsvOutput) {
  Table t({"a", "b"});
  t.add_row({"1", "2"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(Table, NumberFormatting) {
  EXPECT_EQ(Table::num(3.14159, 1), "3.1");
  EXPECT_EQ(Table::num(3.14159, 3), "3.142");
  EXPECT_EQ(Table::num(std::uint64_t{12345}), "12345");
}

TEST(Figure, PaperProcCounts) {
  EXPECT_EQ(harness::paper_proc_counts(),
            (std::vector<unsigned>{1, 2, 4, 8, 16, 32}));
}

TEST(Figure, MissCellsMatchHeaders) {
  stats::MissCounts m;
  m[stats::MissClass::Cold] = 3;
  m.exclusive_requests = 7;
  const auto cells = harness::miss_cells(m);
  ASSERT_EQ(cells.size(), harness::miss_headers().size());
  EXPECT_EQ(cells[0], "3");
  EXPECT_EQ(cells[5], "3");  // total
  EXPECT_EQ(cells[6], "7");  // excl-req
}

TEST(Figure, UpdateCellsMatchHeaders) {
  stats::UpdateCounts u;
  u[stats::UpdateClass::TrueSharing] = 10;
  u[stats::UpdateClass::Drop] = 2;
  const auto cells = harness::update_cells(u);
  ASSERT_EQ(cells.size(), harness::update_headers().size());
  EXPECT_EQ(cells[0], "10");
  EXPECT_EQ(cells[5], "2");
  EXPECT_EQ(cells[6], "12");  // total
}

TEST(Cli, Defaults) {
  unsetenv("REPRO_SCALE");
  char prog[] = "bench";
  char* argv[] = {prog};
  const BenchOptions o = harness::parse_bench_args(1, argv);
  EXPECT_FALSE(o.csv);
  EXPECT_EQ(o.procs.size(), 6u);
  EXPECT_GT(o.scale, 0.0);
}

TEST(Cli, PaperFlag) {
  char prog[] = "bench", paper[] = "--paper";
  char* argv[] = {prog, paper};
  EXPECT_EQ(harness::parse_bench_args(2, argv).scale, 1.0);
}

TEST(Cli, ScaleAndProcsAndCsv) {
  char prog[] = "bench", s[] = "--scale=0.25", p[] = "--procs=2,8", c[] = "--csv";
  char* argv[] = {prog, s, p, c};
  const BenchOptions o = harness::parse_bench_args(4, argv);
  EXPECT_DOUBLE_EQ(o.scale, 0.25);
  EXPECT_EQ(o.procs, (std::vector<unsigned>{2, 8}));
  EXPECT_TRUE(o.csv);
}

TEST(Cli, ScaledCountsHaveFloor) {
  char prog[] = "bench", s[] = "--scale=0.0001";
  char* argv[] = {prog, s};
  const BenchOptions o = harness::parse_bench_args(2, argv);
  EXPECT_EQ(harness::scaled(o.scale, 32000), 32u);
}

TEST(Cli, RejectsBadArgs) {
  char prog[] = "bench", bad[] = "--bogus";
  char* argv[] = {prog, bad};
  EXPECT_THROW(harness::parse_bench_args(2, argv), std::invalid_argument);
  char s2[] = "--scale=7";
  char* argv2[] = {prog, s2};
  EXPECT_THROW(harness::parse_bench_args(2, argv2), std::invalid_argument);
}

/// parse_bench_args over a list of arguments (argv[0] supplied).
BenchOptions parse(const std::vector<std::string>& args) {
  std::vector<std::string> store{"bench"};
  store.insert(store.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& s : store) argv.push_back(s.data());
  return harness::parse_bench_args(static_cast<int>(argv.size()), argv.data());
}

/// The message parse_bench_args throws for `args` ("" if it accepts them).
std::string rejection(const std::vector<std::string>& args) {
  try {
    parse(args);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(Cli, EveryValueFlagAcceptsBothForms) {
  unsetenv("REPRO_SCALE");
  const std::vector<std::pair<std::string, std::string>> flags{
      {"--scale", "0.25"},       {"--procs", "2,8"},   {"--jobs", "3"},
      {"--json", "m.json"},      {"--trace-out", "t"}, {"--trace-format", "jsonl"},
      {"--sample-interval", "7"}, {"--hot-top", "5"}};
  for (const auto& [flag, value] : flags) {
    const BenchOptions eq = parse({flag + "=" + value});
    const BenchOptions sep = parse({flag, value});
    EXPECT_EQ(eq.scale, sep.scale) << flag;
    EXPECT_EQ(eq.procs, sep.procs) << flag;
    EXPECT_EQ(eq.jobs, sep.jobs) << flag;
    EXPECT_EQ(eq.obs.json_path, sep.obs.json_path) << flag;
    EXPECT_EQ(eq.obs.trace_path, sep.obs.trace_path) << flag;
    EXPECT_EQ(eq.obs.trace_format, sep.obs.trace_format) << flag;
    EXPECT_EQ(eq.obs.sample_interval, sep.obs.sample_interval) << flag;
    EXPECT_EQ(eq.obs.hot_top_k, sep.obs.hot_top_k) << flag;
  }
  const BenchOptions o = parse({"--scale", "0.25", "--procs", "2,8", "--jobs", "3",
                                "--sample-interval", "7", "--hot-top", "5"});
  EXPECT_DOUBLE_EQ(o.scale, 0.25);
  EXPECT_EQ(o.procs, (std::vector<unsigned>{2, 8}));
  EXPECT_EQ(o.jobs, 3u);
  EXPECT_EQ(o.obs.sample_interval, 7u);
  EXPECT_EQ(o.obs.hot_top_k, 5u);
}

TEST(Cli, BadValuesThrowNamingTheFlag) {
  unsetenv("REPRO_SCALE");
  const std::vector<std::pair<std::vector<std::string>, std::string>> cases{
      {{"--procs=0"}, "--procs"},        {{"--procs=33"}, "--procs"},
      {{"--procs=2,,4"}, "--procs"},     {{"--scale=0.5x"}, "--scale"},
      {{"--jobs=-1"}, "--jobs"},         {{"--procs", "2x"}, "--procs"},
      {{"--procs"}, "--procs"},          {{"--sample-interval=10x"}, "--sample-interval"},
      {{"--hot-top=0"}, "--hot-top"},    {{"--scale", "0"}, "--scale"}};
  for (const auto& [args, flag] : cases) {
    const std::string msg = rejection(args);
    EXPECT_EQ(msg.rfind(flag, 0), 0u) << args.front() << " -> \"" << msg << '"';
  }
  EXPECT_EQ(rejection({"--procs=2,,4"}), "--procs: empty item in \"2,,4\"");
  EXPECT_EQ(rejection({"--procs=33"}), "--procs must be in [1, 32]");
  EXPECT_EQ(rejection({"--jobs=-1"}), "--jobs: bad number \"-1\"");
}

TEST(Cli, HelpIsRecognised) {
  EXPECT_TRUE(parse({"--help"}).help);
  EXPECT_TRUE(parse({"-h"}).help);
  EXPECT_FALSE(parse({}).help);
  EXPECT_NE(harness::bench_usage("fig08").find("usage: fig08"), std::string::npos);
}

TEST(Cli, ProcsLimitIsTheMachineLimit) {
  EXPECT_EQ(parse({"--procs=1,32"}).procs,
            (std::vector<unsigned>{1, kMaxProcs}));
  for (unsigned n : {0u, kMaxProcs + 1}) {
    harness::MachineConfig cfg;
    cfg.nprocs = n;
    EXPECT_THROW(harness::Machine m(cfg), std::invalid_argument) << n;
  }
  harness::MachineConfig cfg;
  cfg.nprocs = kMaxProcs;
  EXPECT_NO_THROW(harness::Machine m(cfg));
}

TEST(Cli, ShortTagsRoundTrip) {
  for (const harness::Construct& c : harness::kConstructs)
    EXPECT_EQ(harness::parse_short_tag("--x", c.family, harness::short_tag(c)), c);
  EXPECT_EQ(harness::parse_short_tag("--locks", harness::ConstructFamily::Lock, "mcs"),
            harness::Construct(harness::LockKind::Mcs));
  EXPECT_THROW((void)harness::parse_short_tag("--barriers",
                                              harness::ConstructFamily::Barrier, "tk"),
               std::invalid_argument);
}

TEST(Cli, SweepCellScalesThePaperCounts) {
  harness::MachineConfig cfg;
  cfg.nprocs = 4;
  const harness::SweepJob lock =
      harness::sweep_cell("l", harness::LockKind::Mcs, cfg, 0.5, 9);
  EXPECT_EQ(lock.family, harness::ConstructFamily::Lock);
  EXPECT_EQ(lock.lock, harness::LockKind::Mcs);
  EXPECT_EQ(lock.lock_params.total_acquires, 16000u);
  EXPECT_EQ(lock.lock_params.seed, 9u);
  EXPECT_EQ(lock.machine.nprocs, 4u);
  const harness::SweepJob red =
      harness::sweep_cell("r", harness::ReductionKind::Parallel, cfg, 0.0001);
  EXPECT_EQ(red.reduction_params.rounds, 32u);
  EXPECT_EQ(red.reduction_params.seed, harness::ReductionParams{}.seed);
}

TEST(Cli, EnvDefaultScale) {
  setenv("REPRO_SCALE", "0.5", 1);
  char prog[] = "bench";
  char* argv[] = {prog};
  EXPECT_DOUBLE_EQ(harness::parse_bench_args(1, argv).scale, 0.5);
  unsetenv("REPRO_SCALE");
}

} // namespace
