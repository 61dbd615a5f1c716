#include "ppd/sta/screen.hpp"

#include "ppd/exec/parallel.hpp"
#include "ppd/sta/scoap.hpp"
#include "ppd/sta/slack_paths.hpp"
#include "ppd/sta/survival.hpp"
#include "ppd/util/error.hpp"

namespace ppd::sta {

const char* verdict_name(Verdict v) {
  switch (v) {
    case Verdict::kKept: return "kept";
    case Verdict::kPulseDead: return "pulse-dead";
    case Verdict::kUnjustifiable: return "unjustifiable";
  }
  return "?";
}

ScreenReport screen_paths(const logic::Netlist& netlist,
                          const logic::GateTimingLibrary& library,
                          const std::vector<logic::Path>& paths,
                          const ScreenOptions& options) {
  PPD_REQUIRE(options.w_in_max > 0.0, "w_in_max must be positive");
  PPD_REQUIRE(options.w_th_floor > 0.0, "w_th_floor must be positive");

  ScreenReport report;
  const ScoapResult scoap = compute_scoap(netlist);

  report.paths.assign(paths.size(), ScreenedPath{});
  exec::ParallelOptions popt;
  popt.threads = options.threads;
  popt.context = "sta::screen_paths over " + netlist.source();
  exec::parallel_for(
      paths.size(),
      [&](std::size_t i) {
        ScreenedPath& sp = report.paths[i];
        sp.path = paths[i];
        sp.delay = path_delay_worst(netlist, library, sp.path);
        sp.w_required = path_required_width(library, netlist, sp.path,
                                            options.w_th_floor, options.margin);
        sp.scoap_cost = side_input_cost(netlist, scoap, sp.path);
        if (sp.w_required > options.w_in_max) {
          sp.verdict = Verdict::kPulseDead;
          return;
        }
        if (sp.scoap_cost == kScoapInfinite) {
          sp.verdict = Verdict::kUnjustifiable;
          return;
        }
        if (options.justify &&
            !logic::sensitize_path(netlist, sp.path, options.sensitize).ok) {
          sp.verdict = Verdict::kUnjustifiable;
          return;
        }
        sp.verdict = Verdict::kKept;
      },
      popt);

  for (const ScreenedPath& p : report.paths) {
    switch (p.verdict) {
      case Verdict::kKept: ++report.kept; break;
      case Verdict::kPulseDead: ++report.pulse_dead; break;
      case Verdict::kUnjustifiable: ++report.unjustifiable; break;
    }
  }
  return report;
}

}  // namespace ppd::sta
