#include "harness/cli.hpp"

#include <cctype>
#include <cerrno>
#include <climits>
#include <cstdlib>
#include <stdexcept>

namespace ccsim::harness {

namespace {
[[noreturn]] void bad(std::string_view flag, const std::string& what) {
  throw std::invalid_argument(std::string(flag) + what);
}

obs::TraceFormat parse_trace_format(const std::string& s) {
  if (s == "ring") return obs::TraceFormat::Ring;
  if (s == "jsonl") return obs::TraceFormat::Jsonl;
  if (s == "perfetto") return obs::TraceFormat::Perfetto;
  throw std::invalid_argument("--trace-format must be ring, jsonl or perfetto");
}
} // namespace

bool take_value(std::string_view flag, int argc, char** argv, int& i,
                std::string& value) {
  const std::string_view a = argv[i];
  if (a.size() > flag.size() && a.starts_with(flag) && a[flag.size()] == '=') {
    value = a.substr(flag.size() + 1);
    return true;
  }
  if (a == flag) {
    if (i + 1 >= argc) bad(flag, " needs a value");
    value = argv[++i];
    return true;
  }
  return false;
}

bool is_help(std::string_view arg) noexcept { return arg == "--help" || arg == "-h"; }

std::vector<std::string> split_list(std::string_view flag, const std::string& value) {
  if (value.empty()) bad(flag, " needs at least one value");
  std::vector<std::string> out;
  std::size_t pos = 0;
  for (;;) {
    const std::size_t comma = value.find(',', pos);
    out.push_back(value.substr(pos, comma - pos));
    if (out.back().empty()) bad(flag, ": empty item in \"" + value + '"');
    if (comma == std::string::npos) return out;
    pos = comma + 1;
  }
}

std::uint64_t parse_u64(std::string_view flag, const std::string& value,
                        std::uint64_t lo, std::uint64_t hi) {
  char* end = nullptr;
  errno = 0;
  const std::uint64_t v = std::strtoull(value.c_str(), &end, 0);
  // strtoull skips blanks and wraps "-1" to 2^64-1: demand a leading digit.
  if (value.empty() || !std::isdigit(static_cast<unsigned char>(value[0])) ||
      *end != '\0' || errno == ERANGE)
    bad(flag, ": bad number \"" + value + '"');
  if (hi < UINT_MAX && (v < lo || v > hi))
    bad(flag, " must be in [" + std::to_string(lo) + ", " + std::to_string(hi) + "]");
  if (v < lo) bad(flag, " must be >= " + std::to_string(lo));
  if (v > hi) bad(flag, ": \"" + value + "\" is out of range");
  return v;
}

unsigned parse_uint(std::string_view flag, const std::string& value, unsigned lo) {
  return static_cast<unsigned>(parse_u64(flag, value, lo, UINT_MAX));
}

unsigned parse_procs(std::string_view flag, const std::string& value) {
  return static_cast<unsigned>(parse_u64(flag, value, 1, kMaxProcs));
}

std::vector<unsigned> parse_procs_list(std::string_view flag, const std::string& value) {
  std::vector<unsigned> out;
  for (const std::string& s : split_list(flag, value))
    out.push_back(parse_procs(flag, s));
  return out;
}

double parse_double(std::string_view flag, const std::string& value) {
  char* end = nullptr;
  const double v = std::strtod(value.c_str(), &end);
  if (value.empty() || !(std::isdigit(static_cast<unsigned char>(value[0])) ||
                         value[0] == '.') ||
      *end != '\0')
    bad(flag, ": bad number \"" + value + '"');
  return v;
}

double parse_scale(std::string_view flag, const std::string& value) {
  const double v = parse_double(flag, value);
  if (!(v > 0.0 && v <= 1.0)) bad(flag, " must be in (0, 1]");
  return v;
}

double parse_percent(std::string_view flag, const std::string& value) {
  const double v = parse_double(flag, value);
  if (!(v >= 0.0 && v <= 100.0)) bad(flag, " must be in [0, 100]");
  return v;
}

proto::Protocol parse_protocol(std::string_view flag, std::string_view value) {
  if (value == "WI" || value == "wi") return proto::Protocol::WI;
  if (value == "PU" || value == "pu") return proto::Protocol::PU;
  if (value == "CU" || value == "cu") return proto::Protocol::CU;
  bad(flag, ": unknown protocol \"" + std::string(value) + "\" (WI, PU, CU)");
}

bool parse_obs_arg(ObsOptions& o, int argc, char** argv, int& i) {
  const std::string_view a = argv[i];
  std::string v;
  if (take_value("--json", argc, argv, i, v)) {
    o.json_path = v;
  } else if (take_value("--trace-out", argc, argv, i, v)) {
    o.trace_path = v;
  } else if (take_value("--trace-format", argc, argv, i, v)) {
    o.trace_format = parse_trace_format(v);
  } else if (take_value("--sample-interval", argc, argv, i, v)) {
    o.sample_interval = parse_u64("--sample-interval", v, 1);
  } else if (take_value("--hot-top", argc, argv, i, v)) {
    o.hot_top_k = parse_u64("--hot-top", v, 1);
  } else if (a == "--profile") {
    o.profile = true;
  } else if (a == "--host-metrics") {
    o.host_metrics = true;
  } else if (a == "--sharing") {
    o.sharing = true;
  } else {
    return false;
  }
  return true;
}

BenchOptions parse_bench_args(int argc, char** argv) {
  BenchOptions o;
  if (const char* env = std::getenv("REPRO_SCALE"))
    o.scale = parse_scale("REPRO_SCALE", env);
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    std::string v;
    if (a == "--paper") {
      o.scale = 1.0;
    } else if (take_value("--scale", argc, argv, i, v)) {
      o.scale = parse_scale("--scale", v);
    } else if (take_value("--procs", argc, argv, i, v)) {
      o.procs = parse_procs_list("--procs", v);
    } else if (a == "--csv") {
      o.csv = true;
    } else if (take_value("--jobs", argc, argv, i, v)) {
      o.jobs = parse_uint("--jobs", v);
    } else if (parse_obs_arg(o.obs, argc, argv, i)) {
      // consumed (possibly including a separate value argument)
    } else if (is_help(a)) {
      o.help = true;
    } else {
      throw std::invalid_argument("unknown argument: " + std::string(a));
    }
  }
  return o;
}

std::string bench_usage(std::string_view prog) {
  return "usage: " + std::string(prog) +
         " [--paper | --scale X] [--procs a,b,...] [--csv] [--jobs N]\n"
         "       [--json FILE] [--trace-out FILE] [--trace-format "
         "ring|jsonl|perfetto]\n"
         "       [--sample-interval N] [--hot-top K] [--profile] "
         "[--host-metrics] [--sharing]\n"
         "Every value flag accepts --flag value and --flag=value; "
         "--procs values are in [1, " +
         std::to_string(kMaxProcs) + "].\n";
}

} // namespace ccsim::harness
