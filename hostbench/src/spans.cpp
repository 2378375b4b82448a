// CPU clocks and the in-memory span log.
#include "bench.hpp"

#include "stats/json.hpp"

#include <cstdio>
#include <ctime>
#include <fstream>
#include <stdexcept>

namespace hostbench {
namespace {

/// Microseconds with nanosecond digits (the writer's doubles keep six).
std::string micros(std::int64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", static_cast<double>(ns) / 1000.0);
  return buf;
}

std::int64_t clock_ns(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

} // namespace

std::int64_t thread_cpu_ns() { return clock_ns(CLOCK_THREAD_CPUTIME_ID); }
std::int64_t process_cpu_ns() { return clock_ns(CLOCK_PROCESS_CPUTIME_ID); }

std::int64_t SpanLog::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_)
      .count();
}

SpanLog::Id SpanLog::add(std::string name, Id parent, std::int64_t start_ns,
                         std::int64_t end_ns, unsigned track) {
  spans_.push_back(Span{std::move(name), parent, start_ns, end_ns, track});
  return static_cast<Id>(spans_.size());  // ids start at 1; 0 is kNone
}

SpanLog::Id SpanLog::open(std::string name, Id parent) {
  const std::int64_t t = now_ns();
  return add(std::move(name), parent, t, t);
}

void SpanLog::close(Id id) { spans_.at(id - 1).end_ns = now_ns(); }

void SpanLog::write_perfetto(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  stats::JsonWriter w(out);
  w.begin_object();
  w.key("displayTimeUnit").value("ns");
  w.key("traceEvents").begin_array();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    w.begin_object();
    w.key("name").value(s.name);
    w.key("ph").value("X");
    w.key("pid").value(1);
    w.key("tid").value(s.track);
    w.key("ts").raw(micros(s.start_ns));
    w.key("dur").raw(micros(s.end_ns - s.start_ns));
    w.key("args").begin_object();
    w.key("id").value(static_cast<std::uint64_t>(i + 1));
    w.key("parent").value(static_cast<std::uint64_t>(s.parent));
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  out << '\n';
}

} // namespace hostbench
