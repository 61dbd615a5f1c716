// perfbench: one run of one benchmark workload against the ppd library.
//
//   perfbench --workload NAME --seed N --passes P [--trace 0|1]
//             [--threads N] [--reduced] [--fault-plan SPEC]
//             [--max-inflight N] [--spans FILE]
//   perfbench --workload NAME --seed N --setup-only
//
// The run builds the workload from the seed (set-up), warms up with one
// untimed pass, then runs its fixed pass of work P times, each pass from
// an empty solve cache. P is fixed by the caller, never by how fast the
// passes go, so every quantile is taken over the same number of samples.
// It prints one JSON object with the raw per-pass counter deltas,
// per-operation latencies and the failure accounting; perfbench/run.py
// turns that into the benchmark's metrics.
// With --trace 1 every other pass records spans around each public call,
// written to FILE at exit. --threads, --reduced, --fault-plan and
// --max-inflight exist for the self-tests (perfbench/tests).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <unistd.h>

#include "ppd/cache/solve_cache.hpp"
#include "ppd/resil/faultplan.hpp"
#include "probe.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int passes = 3;
  bool trace = false;
  int threads = 0;
  bool reduced = false;
  std::string fault_plan;
  std::size_t max_inflight = 0;
  bool setup_only = false;
  std::string spans;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload NAME --seed N --passes P "
               "[--trace 0|1] [--threads N] [--reduced] [--fault-plan SPEC] "
               "[--max-inflight N] [--spans FILE] [--setup-only]\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + flag);
      return argv[++i];
    };
    try {
      if (flag == "--workload") a.workload = value();
      else if (flag == "--seed") a.seed = std::stoull(value());
      else if (flag == "--passes") a.passes = std::stoi(value());
      else if (flag == "--trace") a.trace = std::stoi(value()) != 0;
      else if (flag == "--threads") a.threads = std::stoi(value());
      else if (flag == "--reduced") a.reduced = true;
      else if (flag == "--fault-plan") a.fault_plan = value();
      else if (flag == "--max-inflight") a.max_inflight = std::stoul(value());
      else if (flag == "--setup-only") a.setup_only = true;
      else if (flag == "--spans") a.spans = value();
      else usage("unknown flag " + flag);
    } catch (const std::logic_error&) {
      usage("bad value for " + flag);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (a.threads <= 0)
    a.threads = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  if (a.passes < 1) usage("--passes must be >= 1");
  return a;
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

struct PassRecord {
  Counters delta;
  std::string digest;
  bool traced = false;
  bool threw = false;
};

// Every pass of one seed must produce the same outputs, and (batch
// workloads) the same solver work: the spice counts are exact.
void check_repeatable(Recorder& rec, const std::vector<PassRecord>& passes) {
  for (std::size_t i = 1; i < passes.size(); ++i) {
    rec.check(passes[i].digest == passes[0].digest,
              "pass " + std::to_string(i) + " digest differs from pass 0");
    for (const auto& [name, value] : passes[0].delta.values) {
      if (name.rfind("spice.", 0) != 0) continue;
      rec.check(passes[i].delta.values.at(name) == value,
                "pass " + std::to_string(i) + " " + name + " differs from pass 0");
    }
  }
}

void write_spans(const std::string& path, const Recorder& rec) {
  std::ofstream os(path);
  if (!os) {
    std::cerr << "perfbench: cannot write spans to " << path << "\n";
    return;
  }
  os << "[";
  bool first = true;
  for (const Span& s : rec.spans()) {
    os << (first ? "\n" : ",\n") << "{\"name\":" << quote(s.name)
       << ",\"start\":" << num(s.start) << ",\"end\":" << num(s.end)
       << ",\"id\":" << s.id << ",\"parent\":" << s.parent
       << ",\"run\":" << rec.run_id() << "}";
    first = false;
  }
  os << "\n]\n";
}

int run(const Args& args) {
  Config cfg;
  cfg.seed = args.seed;
  cfg.threads = args.threads;
  cfg.reduced = args.reduced;
  if (!args.fault_plan.empty())
    cfg.faults = ppd::resil::FaultPlan::parse(args.fault_plan);
  cfg.max_inflight = args.max_inflight;
  std::unique_ptr<Workload> workload = make_workload(args.workload, cfg);
  const double ready = mono_seconds();
  if (args.setup_only) {
    std::cout << "{\"ready_mono\":" << num(ready) << "}\n";
    return 0;
  }
  Recorder rec(static_cast<std::uint64_t>(getpid()) << 20 ^ args.seed);
  std::vector<PassRecord> passes;
  // The warm-up pass is checked like the others but not timed: its ops are
  // dropped and its counters never enter a median.
  std::string warm_digest;
  {
    Recorder warm_rec(0);
    Digest digest;
    ppd::cache::SolveCache::global().clear();
    try {
      if (workload->warm_up(warm_rec, digest)) warm_digest = digest.hex();
    } catch (const std::exception& e) {
      warm_rec.problem(e.what());
      rec.check(false, "warm-up threw");
    }
    const Accounting acc = warm_rec.accounting();
    for (const auto& problem : acc.problems) rec.problem("warm-up: " + problem);
    rec.check(acc.calls_failed == 0 && acc.checks_failed == 0,
              "warm-up pass failed");
  }
  const double timed_start = mono_seconds();
  while (static_cast<int>(passes.size()) < args.passes) {
    PassRecord p;
    p.traced = args.trace && passes.size() % 2 == 0;
    ppd::cache::SolveCache::global().clear();
    const Counters before = Counters::read();
    rec.set_tracing(p.traced);
    rec.begin_pass();
    Digest digest;
    try {
      workload->pass(rec, digest);
    } catch (const std::exception&) {
      p.threw = true;  // already counted and described by the recorder
    }
    rec.end_pass();
    rec.set_tracing(false);
    p.delta = Counters::read().minus(before);
    p.digest = digest.hex();
    passes.push_back(std::move(p));
  }
  const double timed_wall = mono_seconds() - timed_start;

  const WorkloadInfo info = workload->info();
  workload->verify(rec);
  for (const auto& p : passes) rec.check(!p.threw, "pass aborted by an exception");
  if (info.fixed_passes) check_repeatable(rec, passes);
  if (!warm_digest.empty() && !passes.empty())
    rec.check(warm_digest == passes[0].digest,
              "warm-up pass digest differs from pass 0");
  if (!args.spans.empty()) write_spans(args.spans, rec);

  const Accounting acc = rec.accounting();
  std::ostringstream os;
  os << "{\"workload\":" << quote(args.workload) << ",\"seed\":" << args.seed
     << ",\"threads\":" << args.threads << ",\"ready_mono\":" << num(ready)
     << ",\"timed_wall_s\":" << num(timed_wall)
     << ",\"peak_rss_mb\":" << num(peak_rss_mb()) << ",\"info\":{\"unknowns\":"
     << info.unknowns << ",\"sparse\":" << (info.sparse ? "true" : "false")
     << ",\"fixed_passes\":" << (info.fixed_passes ? "true" : "false") << "}";
  os << ",\"passes\":[";
  for (std::size_t i = 0; i < passes.size(); ++i) {
    const PassRecord& p = passes[i];
    os << (i ? "," : "") << "{\"traced\":" << (p.traced ? "true" : "false")
       << ",\"digest\":" << quote(p.digest) << ",\"counters\":{";
    bool first = true;
    for (const auto& [name, value] : p.delta.values) {
      os << (first ? "" : ",") << quote(name) << ":" << num(value);
      first = false;
    }
    os << "}}";
  }
  os << "],\"ops\":[";
  const auto ops = rec.ops();
  for (std::size_t i = 0; i < ops.size(); ++i)
    os << (i ? "," : "") << "[" << quote(ops[i].name) << "," << num(ops[i].ms)
       << "," << (ops[i].ok ? "true" : "false") << "]";
  os << "],\"queries\":[";
  const auto queries = rec.queries();
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const QueryTiming& q = queries[i];
    os << (i ? "," : "") << "{\"kind\":" << quote(q.kind)
       << ",\"repeat\":" << (q.repeat ? "true" : "false")
       << ",\"rtt_ms\":" << num(q.rtt_ms) << ",\"queue_ms\":" << num(q.queue_ms)
       << ",\"execute_ms\":" << num(q.execute_ms)
       << ",\"serialize_ms\":" << num(q.serialize_ms) << "}";
  }
  os << "],\"accounting\":{\"calls\":" << acc.calls
     << ",\"calls_failed\":" << acc.calls_failed << ",\"samples\":" << acc.samples
     << ",\"quarantined\":" << acc.quarantined << ",\"busy\":" << acc.busy
     << ",\"checks\":" << acc.checks
     << ",\"checks_failed\":" << acc.checks_failed << ",\"problems\":[";
  for (std::size_t i = 0; i < acc.problems.size(); ++i)
    os << (i ? "," : "") << quote(acc.problems[i]);
  os << "]}}";
  std::cout << os.str() << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
