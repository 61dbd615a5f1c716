// The benchmark's workloads. Each one is built from the seed (set-up), then
// runs one fixed pass of work per call to pass(); every public library
// call a pass makes goes through the Recorder, and every simulated output
// goes into the pass digest.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ppd/resil/faultplan.hpp"
#include "probe.hpp"

namespace perfbench {

struct Config {
  std::uint64_t seed = 1;
  int threads = 4;       ///< MC lanes of the batch sweeps
  bool reduced = false;  ///< small paper_coverage, for the self-tests
  /// Injected into the core MC sweeps (coverage, R_min), so the self-tests
  /// can make samples quarantine. Off in every benchmark run.
  ppd::resil::FaultPlan faults;
  /// served_mix's in-flight ceiling (0 = the server default); a tiny one
  /// makes the server answer BUSY, for the self-tests.
  std::size_t max_inflight = 0;
};

/// Properties of a workload that no layer seam exposes: the MNA order of
/// its circuits and which linear-solver backend that order selects.
struct WorkloadInfo {
  std::size_t unknowns = 0;
  bool sparse = false;
  /// True when every pass runs the same inputs, so its digest and spice
  /// counts must repeat exactly (batch workloads). Served traffic draws new
  /// queries each pass, and its clients share the solve cache, so its
  /// counts follow the scheduling.
  bool fixed_passes = true;
};

class Workload {
 public:
  virtual ~Workload() = default;
  [[nodiscard]] virtual WorkloadInfo info() const = 0;
  /// Untimed preparation after set-up: by default one full pass, so the
  /// timed passes see a process past its first-touch costs and a CPU
  /// already under sustained load. Returns true when it ran a pass.
  virtual bool warm_up(Recorder& rec, Digest& digest) {
    pass(rec, digest);
    return true;
  }
  /// One pass of the workload's fixed work.
  virtual void pass(Recorder& rec, Digest& digest) = 0;
  /// Checks that need the whole timed section first (served bodies against
  /// direct run_query references). Runs untimed.
  virtual void verify(Recorder& rec) { (void)rec; }
};

/// Set-up: everything a workload builds before its first timed call.
/// Throws std::invalid_argument for an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      const Config& config);

}  // namespace perfbench
