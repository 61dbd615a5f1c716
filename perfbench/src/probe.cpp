#include "probe.hpp"

#include <sys/resource.h>

#include <cstdio>
#include <ctime>

#include "ppd/cache/solve_cache.hpp"
#include "ppd/exec/thread_pool.hpp"
#include "ppd/obs/metrics.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kMaxProblems = 8;

}  // namespace

double mono_seconds() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch()).count();
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void Digest::mix(const std::string& text) {
  for (const char c : text) {
    state_ ^= static_cast<unsigned char>(c);
    state_ *= 1099511628211ull;
  }
}

void Digest::add(const std::string& label, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "=%.9g;", v);
  mix(label + buf);
}

void Digest::add(const std::string& label, std::uint64_t v) {
  mix(label + "=" + std::to_string(v) + ";");
}

void Digest::add(const std::string& label, const std::string& v) {
  mix(label + "=" + std::to_string(v.size()) + ":" + v + ";");
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(state_));
  return buf;
}

void Recorder::begin_pass() {
  const std::lock_guard<std::mutex> lock(mutex_);
  pass_span_ = next_span_++;
  pass_start_ = mono_seconds();
}

void Recorder::end_pass() {
  const double end = mono_seconds();
  const std::lock_guard<std::mutex> lock(mutex_);
  if (tracing_) spans_.push_back({"pass", pass_start_, end, pass_span_, 0});
  pass_span_ = 0;
}

void Recorder::finish(const std::string& name, double start, bool ok) {
  record(name, start, mono_seconds(), ok);
}

void Recorder::record(const std::string& name, double start, double end,
                      bool ok) {
  const std::lock_guard<std::mutex> lock(mutex_);
  ops_.push_back({name, (end - start) * 1e3, ok});
  ++acc_.calls;
  if (!ok) ++acc_.calls_failed;
  if (tracing_) spans_.push_back({name, start, end, next_span_++, pass_span_});
}

void Recorder::record_query(const QueryTiming& q) {
  const std::lock_guard<std::mutex> lock(mutex_);
  queries_.push_back(q);
}

void Recorder::check(bool ok, const std::string& what) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++acc_.checks;
    if (ok) return;
    ++acc_.checks_failed;
  }
  problem("check failed: " + what);
}

void Recorder::problem(const std::string& what) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (acc_.problems.size() < kMaxProblems) acc_.problems.push_back(what);
}

void Recorder::add_samples(std::uint64_t attempted, std::uint64_t quarantined) {
  const std::lock_guard<std::mutex> lock(mutex_);
  acc_.samples += attempted;
  acc_.quarantined += quarantined;
}

void Recorder::add_busy() {
  const std::lock_guard<std::mutex> lock(mutex_);
  ++acc_.busy;
}

std::vector<Op> Recorder::ops() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return ops_;
}

std::vector<Span> Recorder::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::vector<QueryTiming> Recorder::queries() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return queries_;
}

Accounting Recorder::accounting() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return acc_;
}

Counters Counters::read() {
  // Program counter -> benchmark name. Absent counters read as 0.
  static const std::map<std::string, std::string> kCounters = {
      {"spice.transient.runs", "spice.transients"},
      {"spice.transient.steps", "spice.steps"},
      {"spice.transient.rejected_steps", "spice.rejected_steps"},
      {"spice.newton.solves", "spice.newton_solves"},
      {"spice.op.gmin_fallbacks", "spice.op_fallbacks"},
      {"spice.op.source_fallbacks", "spice.op_fallbacks"},
      {"spice.bypass.hits", "spice.bypass_hits"},
      {"spice.newton.warm_start.hit", "cache.warm_starts"},
      {"resil.quarantined", "resil.quarantined"},
      {"logic.atpg.tests_generated", "logic.tests"},
  };
  Counters c;
  for (const auto& [from, to] : kCounters) c.values[to] = 0.0;
  const ppd::obs::MetricsSnapshot snap = ppd::obs::Registry::global().snapshot();
  for (const auto& [name, value] : snap.counters)
    if (const auto it = kCounters.find(name); it != kCounters.end())
      c.values[it->second] += static_cast<double>(value);
  c.values["spice.newton_iters"] = 0.0;
  for (const auto& h : snap.histograms)
    if (h.name == "spice.newton.iterations") c.values["spice.newton_iters"] = h.sum;

  const auto cache = ppd::cache::SolveCache::global().totals();
  c.values["cache.hits"] = static_cast<double>(cache.hits);
  c.values["cache.misses"] = static_cast<double>(cache.misses);
  c.values["cache.evictions"] = static_cast<double>(cache.evictions);
  const auto pool = ppd::exec::ThreadPool::global().stats();
  c.values["exec.tasks"] = static_cast<double>(pool.tasks_executed);
  c.values["exec.steals"] = static_cast<double>(pool.steals);
  c.values["cpu_s"] = process_cpu_seconds();
  c.values["wall_s"] = mono_seconds();
  return c;
}

Counters Counters::minus(const Counters& before) const {
  Counters d;
  for (const auto& [name, value] : values) {
    const auto it = before.values.find(name);
    d.values[name] = value - (it == before.values.end() ? 0.0 : it->second);
  }
  return d;
}

}  // namespace perfbench
