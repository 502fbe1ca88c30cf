// The paper's Section VI-B runtime claim: hierarchical analysis with
// pre-characterized models is ~three orders of magnitude faster than Monte
// Carlo simulation of the flattened netlist. This harness measures the
// Fig. 7 design's analysis time against flat MC across sample counts and
// writes the table to bench_out/speedup_vs_mc.csv.
//
// Flags: --samples N, the last MC run's sample count (default 10000, the
// paper's count; --quick caps it at 1500).

#include <cstdio>
#include <iostream>

#include "common.hpp"
#include "hssta/hier/hier_ssta.hpp"
#include "hssta/mc/hier_mc.hpp"
#include "hssta/util/csv.hpp"
#include "hssta/util/strings.hpp"
#include "hssta/util/table.hpp"
#include "hssta/util/timer.hpp"

int main(int argc, char** argv) {
  using namespace hssta;
  const bench::BenchArgs args = bench::BenchArgs::parse(argc, argv, 10000);

  std::printf(
      "Speedup reproduction: hierarchical SSTA vs flat Monte Carlo on the\n"
      "Fig. 7 design (4 x c6288)\n\n");

  const flow::Module module = bench::module_for_iscas("c6288", 100,
                                                      args.delta);
  WallTimer extract_timer;
  (void)module.extract_model();
  const double t_extract = extract_timer.seconds();
  const flow::Design design = bench::make_fig7_design(module);

  // Design-level analysis (the recurring cost at design time; extraction is
  // a one-off characterization like the paper's library preparation).
  const hier::HierResult& hier = design.analyze();
  const double t_hier = hier.build_seconds + hier.analysis_seconds;

  // Flatten once, then time pure sampling per sample count.
  const mc::FlatCircuit& fc = design.flat_circuit();

  Table t({"method", "samples", "runtime(s)", "speedup of hier SSTA"});
  CsvWriter csv(bench::out_path("speedup_vs_mc.csv"));
  csv.write_row(std::vector<std::string>{"samples", "mc_seconds",
                                         "hier_seconds", "speedup"});
  t.add_row({"hierarchical SSTA (proposed)", "-", fmt_double(t_hier, 5),
             "1x"});
  for (size_t n : {size_t{100}, size_t{1000}, args.samples}) {
    stats::Rng rng(args.seed);
    WallTimer mc_timer;
    const auto mc = fc.sample_delay(n, rng);
    const double t_mc = mc_timer.seconds();
    char speed[32];
    std::snprintf(speed, sizeof(speed), "%.0fx", t_mc / t_hier);
    t.add_row({"flat Monte Carlo", std::to_string(n), fmt_double(t_mc, 3),
               speed});
    csv.write_row(std::vector<double>{static_cast<double>(n), t_mc, t_hier,
                                      t_mc / t_hier});
    if (n == args.samples)
      std::printf(
          "at %zu samples: MC %.2f s vs hier %.5f s -> %.0fx (paper claims "
          "~1000x)\n",
          n, t_mc, t_hier, t_mc / t_hier);
  }
  std::printf("one-off model extraction: %.2f s (amortized across designs)\n\n",
              t_extract);
  t.print(std::cout);
  std::printf("\nCSV: %s\n", bench::out_path("speedup_vs_mc.csv").c_str());
  return 0;
}
