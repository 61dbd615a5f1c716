#include "workloads.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <random>
#include <stdexcept>
#include <thread>

#include "ppd/cache/solve_cache.hpp"
#include "ppd/cells/path.hpp"
#include "ppd/core/coverage.hpp"
#include "ppd/core/path_screen.hpp"
#include "ppd/core/rmin.hpp"
#include "ppd/exec/thread_pool.hpp"
#include "ppd/faults/fault.hpp"
#include "ppd/logic/bench.hpp"
#include "ppd/logic/faultsim.hpp"
#include "ppd/logic/sta.hpp"
#include "ppd/net/client.hpp"
#include "ppd/net/query.hpp"
#include "ppd/net/server.hpp"

namespace perfbench {

namespace {

using namespace ppd;

constexpr double kSigma = 0.05;  // the paper's process spread

WorkloadInfo path_info(const core::PathFactory& factory) {
  core::PathInstance inst = core::make_instance(factory, 0.0, nullptr);
  inst.path.netlist().circuit().finalize();
  const std::size_t n = inst.path.netlist().circuit().unknown_count();
  // Sparse LU takes over above the transient's default threshold.
  return {n, n > spice::TransientOptions{}.sparse_threshold, true};
}

core::PathFactory path_factory(int repeats, faults::FaultKind kind) {
  core::PathFactory f;
  const auto seven = cells::seven_gate_path().kinds;
  for (int i = 0; i < repeats; ++i)
    f.options.kinds.insert(f.options.kinds.end(), seven.begin(), seven.end());
  faults::PathFaultSpec spec;
  spec.kind = kind;
  spec.stage = 1;  // output of gate 2, as in the paper
  f.fault = spec;
  return f;
}

void digest_coverage(Recorder& rec, Digest& d, const std::string& label,
                     const core::CoverageResult& res) {
  bool in_range = true;
  for (std::size_t m = 0; m < res.coverage.size(); ++m)
    for (std::size_t r = 0; r < res.coverage[m].size(); ++r) {
      const double c = res.coverage[m][r];
      in_range = in_range && c >= 0.0 && c <= 1.0;
      d.add(label + ".c" + std::to_string(m) + "." + std::to_string(r), c);
    }
  d.add(label + ".sims", static_cast<std::uint64_t>(res.simulations));
  d.add(label + ".quarantined", static_cast<std::uint64_t>(res.n_quarantined()));
  rec.add_samples(res.simulations + res.n_quarantined(), res.n_quarantined());
  rec.check(in_range, label + " coverage outside [0, 1]");
}

void digest_delay_cal(Recorder& rec, Digest& d,
                      const core::DelayTestCalibration& cal) {
  d.add("delay.t0", cal.t_nominal);
  d.add("delay.worst", cal.worst_fault_free_delay);
  rec.check(cal.t_nominal > cal.worst_fault_free_delay,
            "delay calibration: T0 below the worst fault-free delay");
}

void digest_pulse_cal(Recorder& rec, Digest& d, const std::string& label,
                      const core::PulseTestCalibration& cal) {
  d.add(label + ".w_in", cal.w_in);
  d.add(label + ".w_th", cal.w_th);
  d.add(label + ".min_w_out", cal.min_fault_free_w_out);
  for (std::size_t i = 0; i < cal.nominal_curve.w_out.size(); ++i)
    d.add(label + ".curve" + std::to_string(i), cal.nominal_curve.w_out[i]);
  rec.check(cal.w_in > 0.0 && cal.w_th > 0.0 && cal.w_th < cal.w_in * 2.0,
            label + " calibration out of range");
}

// ---------------------------------------------------------------------------
// paper_coverage: Figs. 6-9 on the paper's 7-gate path.
// ---------------------------------------------------------------------------

class PaperCoverage final : public Workload {
 public:
  explicit PaperCoverage(const Config& cfg)
      : cfg_(cfg),
        rop_(path_factory(1, faults::FaultKind::kExternalRopOutput)),
        bridge_(path_factory(1, faults::FaultKind::kBridge)),
        info_(path_info(rop_)),
        samples_(cfg.reduced ? 4 : 16),
        points_(cfg.reduced ? 3 : 9) {}

  [[nodiscard]] WorkloadInfo info() const override { return info_; }

  void pass(Recorder& rec, Digest& d) override {
    const auto variation = mc::VariationModel::uniform_sigma(kSigma);
    core::DelayCalibrationOptions dopt;
    dopt.samples = samples_;
    dopt.seed = cfg_.seed;
    dopt.variation = variation;
    const auto dcal = rec.call("core.calibrate_delay_test", [&] {
      return core::calibrate_delay_test(rop_, dopt);
    });
    digest_delay_cal(rec, d, dcal);

    core::PulseCalibrationOptions popt;
    popt.samples = samples_;
    popt.seed = cfg_.seed;
    popt.variation = variation;
    const auto pcal = rec.call("core.calibrate_pulse_test", [&] {
      return core::calibrate_pulse_test(rop_, popt);
    });
    digest_pulse_cal(rec, d, "pulse", pcal);

    core::CoverageOptions copt;
    copt.samples = samples_;
    copt.seed = cfg_.seed;
    copt.variation = variation;
    copt.threads = cfg_.threads;
    copt.resil.quarantine = true;
    copt.resil.faults = cfg_.faults;
    // Fig. 6/7 (ROP) and Fig. 8/9 (bridge) resistance sweeps.
    struct Sweep {
      std::string name;
      const core::PathFactory& factory;
      std::vector<double> resistances;
    };
    const Sweep sweeps[] = {{"rop", rop_, core::logspace(1e3, 128e3, points_)},
                            {"bridge", bridge_, core::logspace(1.2e3, 64e3, points_)}};
    for (const Sweep& sweep : sweeps) {
      copt.resistances = sweep.resistances;
      const auto del = rec.call("core.run_delay_coverage", [&] {
        return core::run_delay_coverage(sweep.factory, dcal, copt);
      });
      digest_coverage(rec, d, sweep.name + ".delay", del);
      const auto pul = rec.call("core.run_pulse_coverage", [&] {
        return core::run_pulse_coverage(sweep.factory, pcal, copt);
      });
      digest_coverage(rec, d, sweep.name + ".pulse", pul);
    }
  }

 private:
  Config cfg_;
  core::PathFactory rop_;
  core::PathFactory bridge_;
  WorkloadInfo info_;
  const int samples_;          // MC samples per calibration and sweep
  const std::size_t points_;   // resistances per sweep
};

// ---------------------------------------------------------------------------
// deep_path: DF-testing coverage on an 84-stage path (sparse MNA).
// ---------------------------------------------------------------------------

class DeepPath final : public Workload {
 public:
  explicit DeepPath(const Config& cfg)
      : cfg_(cfg),
        factory_(path_factory(12, faults::FaultKind::kExternalRopOutput)),
        info_(path_info(factory_)) {
    // A long path's output settles long after the default 2.5 ns window.
    sim_.t_tail = 8e-9;
  }

  [[nodiscard]] WorkloadInfo info() const override { return info_; }

  void pass(Recorder& rec, Digest& d) override {
    const auto variation = mc::VariationModel::uniform_sigma(kSigma);
    core::DelayCalibrationOptions dopt;
    dopt.samples = kCalSamples;
    dopt.seed = cfg_.seed;
    dopt.variation = variation;
    dopt.sim = sim_;
    const auto cal = rec.call("core.calibrate_delay_test", [&] {
      return core::calibrate_delay_test(factory_, dopt);
    });
    digest_delay_cal(rec, d, cal);

    core::CoverageOptions copt;
    copt.samples = kSamples;
    copt.seed = cfg_.seed;
    copt.variation = variation;
    copt.sim = sim_;
    copt.threads = cfg_.threads;
    copt.resil.quarantine = true;
    copt.resil.faults = cfg_.faults;
    // One call per resistance, so the latency metrics see enough calls.
    for (const double r : kResistances) {
      copt.resistances = {r};
      const auto res = rec.call("core.run_delay_coverage", [&] {
        return core::run_delay_coverage(factory_, cal, copt);
      });
      digest_coverage(rec, d, "r" + std::to_string(static_cast<long>(r)), res);
    }
  }

 private:
  Config cfg_;
  core::PathFactory factory_;
  WorkloadInfo info_;
  core::SimSettings sim_;
  static constexpr int kCalSamples = 2;
  static constexpr int kSamples = 4;  // one round at 4 threads
  static constexpr double kResistances[] = {4e3, 16e3, 64e3};
};

// ---------------------------------------------------------------------------
// c432_circuit: the two-level flow on the C432-class benchmark.
// ---------------------------------------------------------------------------

class C432Circuit final : public Workload {
 public:
  explicit C432Circuit(const Config& cfg)
      : cfg_(cfg),
        netlist_(logic::synthetic_benchmark(logic::SyntheticOptions{})),
        library_(logic::GateTimingLibrary::generic()),
        sim_(netlist_, library_) {
  }

  // sim_ keeps references to netlist_ and library_.
  C432Circuit(const C432Circuit&) = delete;
  C432Circuit& operator=(const C432Circuit&) = delete;

  /// Fig. 11 paths are 5-8 stages (dense); reports the largest kept one.
  [[nodiscard]] WorkloadInfo info() const override {
    WorkloadInfo largest;
    for (const auto& f : kept_)
      if (const WorkloadInfo i = path_info(f); i.unknowns > largest.unknowns) largest = i;
    return largest;
  }

  void pass(Recorder& rec, Digest& d) override {
    logic_flow(rec, d);
    electrical_flow(rec, d);
  }

 private:
  // bench_faultsim_circuit: STA -> slack sites -> ATPG -> compaction and
  // the DF-testing comparison, per defect resistance.
  void logic_flow(Recorder& rec, Digest& d) {
    const auto sta = rec.call("logic.run_sta", [&] {
      return logic::run_sta(netlist_, library_);
    });
    d.add("sta.critical", sta.critical_delay);
    const auto sites = rec.call("logic.slack_sites", [&] {
      return logic::slack_sites(netlist_, sta, 0.20 * sta.critical_delay);
    });
    d.add("sta.sites", static_cast<std::uint64_t>(sites.size()));
    rec.check(!sites.empty(), "c432: no slack sites");

    logic::AtpgOptions aopt;
    aopt.exec.threads = cfg_.threads;
    aopt.exec.resil.quarantine = true;
    for (const double r : {2e3, 8e3, 32e3}) {
      const std::string label = "r" + std::to_string(static_cast<long>(r));
      const auto faults = logic::enumerate_rop_faults(sites, r);
      const auto res = rec.call("logic.generate_pulse_tests", [&] {
        return logic::generate_pulse_tests(sim_, faults, aopt);
      });
      const auto compacted = rec.call("logic.compact_tests", [&] {
        return logic::compact_tests(sim_, faults, res.tests, aopt.exec);
      });
      const auto df = rec.call("logic.run_delay_testing", [&] {
        return logic::run_delay_testing(sim_, faults, logic::DelayTestModel{},
                                        aopt);
      });
      logic::DelayTestModel reduced;
      reduced.clock_period = 0.6 * (sta.critical_delay + reduced.ff_overhead);
      const auto df_reduced = rec.call("logic.run_delay_testing", [&] {
        return logic::run_delay_testing(sim_, faults, reduced, aopt);
      });
      d.add(label + ".faults", static_cast<std::uint64_t>(res.faults_total));
      d.add(label + ".pulse", static_cast<std::uint64_t>(res.coverage.detected_count));
      d.add(label + ".tests", static_cast<std::uint64_t>(res.tests.size()));
      d.add(label + ".compacted", static_cast<std::uint64_t>(compacted.size()));
      d.add(label + ".df", static_cast<std::uint64_t>(df.detected_count));
      d.add(label + ".df_reduced",
            static_cast<std::uint64_t>(df_reduced.detected_count));
      rec.check(compacted.size() <= res.tests.size(),
                label + ": compaction grew the test set");
    }
  }

  // Fig. 11: candidate paths, then (w_in, w_th) and R_min per kept path.
  void electrical_flow(Recorder& rec, Digest& d) {
    core::CandidateSelectionOptions sopt;
    sopt.max_candidates = 3;
    sopt.screen_options.w_in_max = 0.8e-9;
    sopt.screen_options.w_th_floor = 50e-12;
    const auto sel = rec.call("core.select_path_candidates", [&] {
      return core::select_path_candidates(netlist_, library_, sopt);
    });
    d.add("select.candidates", static_cast<std::uint64_t>(sel.candidates.size()));
    d.add("select.kept", static_cast<std::uint64_t>(sel.kept.size()));
    rec.check(!sel.kept.empty(), "c432: no candidate path kept");

    const auto variation = mc::VariationModel::uniform_sigma(kSigma);
    kept_.clear();
    for (const std::size_t k : sel.kept) {
      const core::PathCandidate& c = sel.candidates[k];
      const std::string label = c.site + "." + std::to_string(k);
      core::PathFactory factory;
      factory.options.kinds = c.kinds;
      faults::PathFaultSpec fault;
      fault.kind = faults::FaultKind::kExternalRopOutput;
      fault.stage = c.fault_stage;
      factory.fault = fault;
      kept_.push_back(factory);

      core::PulseCalibrationOptions popt;
      popt.samples = 4;
      popt.seed = cfg_.seed;
      popt.variation = variation;
      const auto cal = rec.call("core.calibrate_pulse_test", [&] {
        return core::calibrate_pulse_test(factory, popt);
      });
      digest_pulse_cal(rec, d, label, cal);

      core::RminOptions ropt;
      ropt.samples = 3;
      ropt.seed = cfg_.seed;
      ropt.variation = variation;
      ropt.threads = cfg_.threads;
      ropt.resil.quarantine = true;
      ropt.resil.faults = cfg_.faults;
      const auto rmin = rec.call("core.find_r_min", [&] {
        return core::find_r_min(factory, cal, ropt);
      });
      d.add(label + ".detectable", static_cast<std::uint64_t>(rmin.detectable));
      d.add(label + ".r_min", rmin.r_min);
      rec.add_samples(rmin.simulations + rmin.n_quarantined, rmin.n_quarantined);
    }
  }

  Config cfg_;
  logic::Netlist netlist_;
  logic::GateTimingLibrary library_;
  logic::FaultSimulator sim_;
  std::vector<core::PathFactory> kept_;  // the last pass's kept paths
};

// ---------------------------------------------------------------------------
// served_mix: two closed-loop clients against an in-process ppdd server.
// ---------------------------------------------------------------------------

// Every key any query of the mix sets. A query spec lists all of the keys
// its kind reads from this set, so the session config at submit time is
// fully determined by the spec and the direct reference can be rebuilt
// from the spec alone.
struct QuerySpec {
  std::string kind;
  std::string arg;  // upload name (lint, sta)
  std::vector<std::pair<std::string, std::string>> params;
  bool repeat = false;  // not part of the query: marks the mix's repeats
};

constexpr const char* kUpload = "mix.bench";
constexpr int kClients = 2;

class ServedMix final : public Workload {
 public:
  explicit ServedMix(const Config& cfg) : cfg_(cfg), rng_(cfg.seed) {
    logic::SyntheticOptions sopt;
    sopt.seed = 1000 + cfg.seed % 100000;
    bench_text_ = logic::write_bench(logic::synthetic_benchmark(sopt));
    net::ServerOptions options;
    if (cfg.max_inflight > 0) options.max_inflight_total = cfg.max_inflight;
    server_ = std::make_unique<net::Server>(options);
    server_->start();
    for (int c = 0; c < kClients; ++c) {
      clients_.push_back(net::Client::connect(server_->port()));
      clients_.back().upload(kUpload, bench_text_);
    }
    configs_.resize(kClients);
  }

  ~ServedMix() override {
    for (auto& c : clients_) {
      try {
        c.quit();
      } catch (const std::exception&) {
        // The server is going down with us; nothing left to report.
      }
    }
    server_->stop();
  }

  ServedMix(const ServedMix&) = delete;
  ServedMix& operator=(const ServedMix&) = delete;

  [[nodiscard]] WorkloadInfo info() const override {
    return {21, false, false};  // the seven-gate path behind most kinds
  }

  /// Warm the exec pool and the connections with queries whose parameters
  /// never occur in the timed sequence (seed 0, 4-point grids), from both
  /// clients at once.
  bool warm_up(Recorder& rec, Digest& digest) override {
    (void)digest;
    std::vector<std::thread> threads;
    for (auto& client : clients_)
      threads.emplace_back([&client, &rec] {
        try {
          client.set("seed", "0");  // timed seeds are >= 1
          client.set("samples", "4");
          client.set("points", "4");  // timed grids have 3 or 7 points
          for (const char* kind : {"calibrate", "coverage", "rmin", "transfer"})
            (void)client.run(kind);
        } catch (const std::exception& e) {
          rec.check(false, std::string("warm-up query threw: ") + e.what());
        }
      });
    for (auto& t : threads) t.join();
    configs_.assign(kClients,
                    SessionConfig{{"seed", "0"}, {"samples", "4"}, {"points", "4"}});
    return false;
  }

  /// Every pass draws new sequences from the seed's stream, so a run's
  /// latency quantiles pool many fresh draws instead of one.
  void pass(Recorder& rec, Digest& d) override {
    std::vector<std::vector<Served>> served(kClients);
    for (int c = 0; c < kClients; ++c)
      for (QuerySpec& spec : make_sequence(c)) served[c].push_back({std::move(spec), {}});
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c)
      threads.emplace_back([&, c] { run_client(rec, c, served[c]); });
    for (auto& t : threads) t.join();
    for (int c = 0; c < kClients; ++c)
      for (Served& s : served[c]) {
        d.add("c" + std::to_string(c) + " " + spec_key(s.spec), s.body);
        observed_.push_back(std::move(s));
      }
  }

  void verify(Recorder& rec) override {
    // References run after the timed passes with the cache off, so they
    // neither read nor leave entries.
    std::map<std::string, std::string> refs;
    std::vector<const QuerySpec*> todo;
    for (const Served& s : observed_)
      if (refs.emplace(spec_key(s.spec), std::string()).second) todo.push_back(&s.spec);
    std::vector<std::string> bodies(todo.size());
    cache::set_cache_enabled(false);
    {
      std::vector<std::thread> workers;
      const std::size_t lanes = static_cast<std::size_t>(std::max(1, cfg_.threads));
      for (std::size_t w = 0; w < lanes; ++w)
        workers.emplace_back([&, w] {
          for (std::size_t i = w; i < todo.size(); i += lanes) {
            try {
              bodies[i] = reference_body(*todo[i]);
            } catch (const std::exception& e) {
              rec.problem("reference " + spec_key(*todo[i]) + " threw: " + e.what());
              bodies[i] = "<reference failed>";
            }
          }
        });
      for (auto& w : workers) w.join();
    }
    cache::set_cache_enabled(true);
    for (std::size_t i = 0; i < todo.size(); ++i) refs[spec_key(*todo[i])] = bodies[i];
    for (const Served& s : observed_) {
      const std::string key = spec_key(s.spec);
      rec.check(s.body == refs[key], "served body differs from run_query: " + key);
    }
  }

 private:
  using SessionConfig = std::map<std::string, std::string>;

  struct Served {
    QuerySpec spec;
    std::string body;
  };

  // Per client and pass: nine fresh queries (calibrate, coverage, rmin,
  // four transfers, sta, lint) in a seeded order, with fresh seeds and grid
  // tops, plus an exact repeat of each fresh calibrate, coverage, rmin and
  // one transfer at a seeded later position; the repeats hit the cache.
  // The seed changes inputs and order, never the amount of work (client 0
  // runs the pulse method, client 1 the delay method). Repeats are a third
  // of the mix and the fresh transfers its middle, so the median query is
  // a compute-bound transfer, not a sub-millisecond cache hit whose round
  // trip is mostly thread wake-up noise.
  std::vector<QuerySpec> make_sequence(int client) {
    std::vector<std::string> kinds{"calibrate", "coverage", "rmin",
                                   "transfer",  "transfer", "transfer",
                                   "transfer",  "sta",      "lint"};
    std::shuffle(kinds.begin(), kinds.end(), rng_);
    const auto uniform = [this](int lo, int hi) {
      return std::to_string(std::uniform_int_distribution<int>(lo, hi)(rng_));
    };
    std::vector<QuerySpec> seq;
    std::vector<std::size_t> to_repeat;
    for (const auto& kind : kinds) {
      QuerySpec q{kind, "", {}, false};
      if (kind == "calibrate") {
        q.params = {{"samples", "6"}, {"seed", uniform(1, 1'000'000'000)}};
      } else if (kind == "coverage") {
        q.params = {{"samples", "4"}, {"seed", uniform(1, 1'000'000'000)},
                    {"points", "3"}, {"method", client == 0 ? "pulse" : "delay"}};
      } else if (kind == "rmin") {
        q.params = {{"samples", "3"}, {"seed", uniform(1, 1'000'000'000)},
                    {"steps", "4"}};
      } else if (kind == "transfer") {
        // 7 points up to a fresh grid top in [0.7, 0.9] ns.
        q.params = {{"points", "7"}, {"w-hi", uniform(700, 900) + "e-12"}};
      } else if (kind == "sta") {
        q.arg = kUpload;
        q.params = {{"k", "5"}};
      } else {
        q.arg = kUpload;
      }
      const bool first_transfer =
          kind == "transfer" &&
          std::none_of(seq.begin(), seq.end(),
                       [](const QuerySpec& s) { return s.kind == "transfer"; });
      if (kind == "calibrate" || kind == "coverage" || kind == "rmin" ||
          first_transfer)
        to_repeat.push_back(seq.size());
      seq.push_back(std::move(q));
    }
    // Insert each repeat after its original, latest originals first so the
    // earlier indices stay valid.
    for (auto it = to_repeat.rbegin(); it != to_repeat.rend(); ++it) {
      const std::size_t slots = seq.size() - *it;
      const std::size_t at = *it + 1 + rng_() % slots;
      QuerySpec copy = seq[*it];
      copy.repeat = true;
      seq.insert(seq.begin() + static_cast<std::ptrdiff_t>(at), copy);
    }
    return seq;
  }

  static std::string spec_key(const QuerySpec& q) {
    std::string key = q.kind + " " + q.arg;
    for (const auto& [k, v] : q.params) key += " " + k + "=" + v;
    return key;
  }

  [[nodiscard]] std::string reference_body(const QuerySpec& spec) const {
    const net::QueryKind kind = net::query_kind_from_string(spec.kind);
    net::QueryParams params = net::params_from_lookup(
        kind, [&spec](const std::string& key) -> std::optional<std::string> {
          for (const auto& [k, v] : spec.params)
            if (k == key) return v;
          return std::nullopt;
        });
    if (kind == net::QueryKind::kLint) {
      params.lint_name = spec.arg;
      params.lint_text = bench_text_;
    } else if (kind == net::QueryKind::kSta && !spec.arg.empty()) {
      params.bench_name = spec.arg;
      params.bench_text = bench_text_;
    }
    return net::run_query(kind, params).body;
  }

  void run_client(Recorder& rec, int c, std::vector<Served>& served) {
    net::Client& client = clients_[static_cast<std::size_t>(c)];
    SessionConfig& config = configs_[static_cast<std::size_t>(c)];
    for (Served& s : served) {
      const QuerySpec& spec = s.spec;
      try {
        for (const auto& [k, v] : spec.params) {
          if (config[k] == v) continue;
          client.set(k, v);
          config[k] = v;
        }
        const double start = mono_seconds();
        const auto sub = client.submit(spec.kind, spec.arg);
        if (sub.busy) {
          rec.record("net.query." + spec.kind, start, mono_seconds(), false);
          rec.add_busy();
          continue;
        }
        const net::Client::Result res = client.wait(sub.id);
        const double end = mono_seconds();
        const bool ok = res.status == "ok";
        rec.record("net.query." + spec.kind, start, end, ok);
        rec.check(res.qid != 0 && res.execute_s > 0.0,
                  "result event without qid or execute time");
        rec.record_query({spec.kind, spec.repeat, (end - start) * 1e3,
                          res.queue_s * 1e3, res.execute_s * 1e3,
                          res.serialize_s * 1e3});
        s.body = res.body;
      } catch (const std::exception& e) {
        const double now = mono_seconds();
        rec.record("net.query." + spec.kind, now, now, false);
        rec.problem("client " + std::to_string(c) + " " + spec.kind +
                    " threw: " + e.what());
      }
    }
  }

  Config cfg_;
  std::mt19937_64 rng_;  // the query stream, drawn pass after pass
  std::string bench_text_;
  std::unique_ptr<net::Server> server_;
  std::vector<net::Client> clients_;
  std::vector<SessionConfig> configs_;  // each session's config as last SET
  std::vector<Served> observed_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const Config& config) {
  // The pool's OS threads are process set-up, not per-pass work.
  (void)ppd::exec::ThreadPool::global();
  if (name == "paper_coverage") return std::make_unique<PaperCoverage>(config);
  if (name == "deep_path") return std::make_unique<DeepPath>(config);
  if (name == "c432_circuit") return std::make_unique<C432Circuit>(config);
  if (name == "served_mix") return std::make_unique<ServedMix>(config);
  throw std::invalid_argument("unknown workload: " + name);
}

}  // namespace perfbench
