// Measurement plumbing of the benchmark harness: timed public calls, the
// optional in-memory span trace, counter deltas read from the program's
// own ppd::obs registry, and the output digest. Everything here sits
// outside the program and only calls its public API.
#pragma once

#include <chrono>
#include <cstdint>
#include <exception>
#include <map>
#include <mutex>
#include <string>
#include <type_traits>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds on the steady clock (CLOCK_MONOTONIC on Linux, the same clock
/// Python's time.monotonic reads, so run.py can time set-up from the
/// moment it spawned this process).
[[nodiscard]] double mono_seconds();
/// CPU seconds of the whole process (every thread).
[[nodiscard]] double process_cpu_seconds();
/// Peak resident set of the process [MiB].
[[nodiscard]] double peak_rss_mb();

/// FNV-1a over a canonical text rendering of the simulated outputs.
/// Doubles are rendered at 9 significant digits, far finer than any figure
/// shows, so last-bit differences (a libm variant chosen for the host CPU)
/// do not flip a digest.
class Digest {
 public:
  void add(const std::string& label, double v);
  void add(const std::string& label, std::uint64_t v);
  void add(const std::string& label, const std::string& v);
  [[nodiscard]] std::string hex() const;

 private:
  void mix(const std::string& text);
  std::uint64_t state_ = 14695981039346656037ull;
};

/// One traced interval. `parent` is 0 for a pass (the root of its run's
/// tree) and the pass span's id for a call made inside it.
struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
};

/// One timed operation: a public library call or one served query.
struct Op {
  std::string name;
  double ms = 0.0;
  bool ok = true;
};

/// What a served query reported about itself (result event timing fields).
struct QueryTiming {
  std::string kind;
  bool repeat = false;  ///< an exact repeat of an earlier query
  double rtt_ms = 0.0;
  double queue_ms = 0.0;
  double execute_ms = 0.0;
  double serialize_ms = 0.0;
};

/// Failure accounting of one run (run.py turns it into fail_frac).
struct Accounting {
  std::uint64_t calls = 0;         ///< public calls or served queries
  /// Calls that threw, and queries answered BUSY or with status != ok.
  std::uint64_t calls_failed = 0;
  std::uint64_t samples = 0;       ///< MC samples attempted in sweeps
  std::uint64_t quarantined = 0;   ///< MC samples the sweeps dropped
  std::uint64_t busy = 0;          ///< of calls_failed: BUSY replies
  std::uint64_t checks = 0;        ///< correctness checks made
  std::uint64_t checks_failed = 0;
  std::vector<std::string> problems;  ///< first few failure messages
};

/// Thread-safe recorder for one run: operations, spans and accounting.
class Recorder {
 public:
  explicit Recorder(std::uint64_t run_id) : run_id_(run_id) {}

  /// Spans are recorded only while tracing is on (a traced run alternates
  /// traced and untraced passes to measure the overhead).
  void set_tracing(bool on) { tracing_ = on; }

  /// Open / close the root span of one pass.
  void begin_pass();
  void end_pass();

  /// Time `fn` as one operation named `name` ("<layer>.<call>"), inside
  /// a span when tracing. An exception counts as a failed call and is
  /// rethrown.
  template <class F>
  decltype(auto) call(const std::string& name, F&& fn) {
    const double start = mono_seconds();
    try {
      if constexpr (std::is_void_v<decltype(fn())>) {
        fn();
        finish(name, start, true);
      } else {
        decltype(auto) out = fn();
        finish(name, start, true);
        return out;
      }
    } catch (const std::exception& e) {
      finish(name, start, false);
      problem(name + " threw: " + e.what());
      throw;
    }
  }

  /// Record an externally timed operation (a served query round trip).
  void record(const std::string& name, double start, double end, bool ok);
  void record_query(const QueryTiming& q);

  /// Correctness check: counts it, and records `what` when it fails.
  void check(bool ok, const std::string& what);
  void problem(const std::string& what);
  void add_samples(std::uint64_t attempted, std::uint64_t quarantined);
  void add_busy();  ///< a BUSY reply (already recorded as a failed call)

  [[nodiscard]] std::uint64_t run_id() const { return run_id_; }
  [[nodiscard]] std::vector<Op> ops() const;
  [[nodiscard]] std::vector<Span> spans() const;
  [[nodiscard]] std::vector<QueryTiming> queries() const;
  [[nodiscard]] Accounting accounting() const;

 private:
  void finish(const std::string& name, double start, bool ok);

  const std::uint64_t run_id_;
  bool tracing_ = false;
  mutable std::mutex mutex_;
  std::vector<Op> ops_;
  std::vector<Span> spans_;
  std::vector<QueryTiming> queries_;
  Accounting acc_;
  std::uint64_t next_span_ = 1;
  std::uint64_t pass_span_ = 0;
  double pass_start_ = 0.0;
};

/// Totals read from the program's counters, the solve cache, the exec pool
/// and the process clocks. A pass reports the difference of two reads.
struct Counters {
  std::map<std::string, double> values;
  [[nodiscard]] static Counters read();
  [[nodiscard]] Counters minus(const Counters& before) const;
};

}  // namespace perfbench
