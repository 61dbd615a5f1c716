// Figure 10: the pulse transfer function w_out = f_p(w_in) of a 7-gate path
// under nominal conditions (full curve) plus Monte-Carlo scatter at a few
// injected widths. Expected shape: three regions — complete dampening, a
// steep attenuation region that is very sensitive to parameter fluctuations
// (and must therefore be avoided when picking w_in), and an asymptotic
// linear region of slope ~1.
#include <iostream>

#include "bench_common.hpp"
#include "ppd/exec/parallel.hpp"
#include "ppd/util/table.hpp"

namespace {

using namespace ppd;

int run(int argc, char** argv) {
  const auto cli = bench::ExperimentCli::parse(argc, argv);
  bench::print_banner(std::cout, "Figure 10",
                      "w_out vs w_in: nominal curve + MC scatter at w_in in "
                      "{0.16, 0.20, 0.25, 0.35, 0.50} ns",
                      cli);

  const core::PathFactory factory = bench::paper_path_factory();
  const core::SimSettings sim;

  // Nominal curve.
  const auto grid = core::linspace(0.08e-9, 0.8e-9, 19);
  const auto curve =
      core::transfer_function(factory, core::PulseKind::kH, grid, sim);
  util::Table t({"w_in_s", "w_out_s_nominal"});
  for (std::size_t i = 0; i < grid.size(); ++i)
    t.add_numeric_row({curve.w_in[i], curve.w_out[i]}, 5);
  if (cli.csv_only)
    std::cout << t.to_csv();
  else
    t.print(std::cout);

  // Monte-Carlo scatter at marked widths spanning the attenuation region
  // and the asymptote. (The paper marks 0.30..0.50 ns; region boundaries
  // are process-specific, so we keep the same *relative* placement — two
  // points inside the attenuation region, one at its edge, two beyond.)
  const int samples = std::max(4, static_cast<int>(cli.samples * cli.scale / 4));
  const auto model = mc::VariationModel::uniform_sigma(cli.sigma);
  util::Table s({"w_in_s", "sample", "w_out_s"});
  std::vector<double> widths{0.16e-9, 0.20e-9, 0.25e-9, 0.35e-9, 0.50e-9};
  // Flat (width, sample) population, one transient per item; each sample
  // reuses its (seed, k) stream so --threads never changes the numbers.
  exec::ParallelOptions par;
  par.threads = cli.threads;
  const auto n_samples = static_cast<std::size_t>(samples);
  const auto scatter = exec::parallel_map(
      widths.size() * n_samples,
      [&](std::size_t item) {
        const std::size_t k = item % n_samples;
        mc::Rng rng = core::sample_rng(cli.seed, k);
        mc::GaussianVariationSource var(model, rng);
        core::PathInstance inst = core::make_instance(factory, 0.0, &var);
        const auto w_out = core::output_pulse_width(
            inst.path, core::PulseKind::kH, widths[item / n_samples], sim);
        return w_out.value_or(0.0);
      },
      par);
  for (std::size_t item = 0; item < scatter.size(); ++item)
    s.add_row({util::format_double(widths[item / n_samples], 5),
               std::to_string(item % n_samples),
               util::format_double(scatter[item], 5)});
  if (cli.csv_only)
    std::cout << s.to_csv();
  else
    s.print(std::cout);

  // Spread summary per width: the attenuation region must show the largest
  // relative spread (the paper's argument for placing w_in past it).
  std::cout << "# per-width MC spread (max - min):\n";
  for (double w : widths) {
    std::vector<double> outs;
    for (std::size_t r = 0; r < s.rows(); ++r)
      if (s.row(r)[0] == util::format_double(w, 5))
        outs.push_back(std::stod(s.row(r)[2]));
    const auto st = mc::compute_stats(outs);
    std::cout << "#  w_in " << util::format_double(w, 3) << " s: spread "
              << util::format_double(st.max - st.min, 4) << " s, mean "
              << util::format_double(st.mean, 4) << " s\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return run(argc, argv); }
