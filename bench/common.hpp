// Shared infrastructure for the paper-reproduction programs in bench/
// (Table I, Figs. 6-7, the Sec. VI-B speedup and two ablations), built on
// the flow:: facade: module handles for the synthetic ISCAS85 suite, the
// paper's Fig. 7 design topology, ArgParser-based flag parsing and CSV
// output handling. bench/ reproduces the paper's results; performance is
// measured by perfbench/ (BENCHMARK.json), not here.

#pragma once

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "hssta/flow/flow.hpp"
#include "hssta/util/argparse.hpp"

namespace hssta::bench {

/// Module handle for one synthetic ISCAS85 circuit under the bench-wide
/// grid bound. `delta` becomes the module's configured extraction
/// threshold, so everything derived from the handle — including
/// design-level analyses — uses the same model.
inline flow::Module module_for_iscas(const std::string& name,
                                     size_t max_cells_per_grid = 100,
                                     double delta = 0.05) {
  flow::Config cfg;
  cfg.max_cells_per_grid = max_cells_per_grid;
  cfg.extract.criticality_threshold = delta;
  return flow::Module::from_iscas(name, cfg);
}

/// The paper's Fig. 7 experimental circuit: four instances of one module in
/// two columns, placed in abutment; the outputs of the first-column modules
/// are cross-connected to the inputs of the second-column modules. The
/// module's model is extracted on demand with the module's own configured
/// options (see module_for_iscas).
inline flow::Design make_fig7_design(const flow::Module& m) {
  const placement::Die mdie = m.model().die();

  flow::Design d("fig7", placement::Die{2 * mdie.width, 2 * mdie.height},
                 m.config());
  const size_t a = d.add_instance(m, 0, 0, "A");
  const size_t b = d.add_instance(m, 0, mdie.height, "B");
  const size_t c = d.add_instance(m, mdie.width, 0, "C");
  const size_t e = d.add_instance(m, mdie.width, mdie.height, "D");

  const size_t ni = d.num_inputs(a);
  const size_t no = d.num_outputs(a);
  const size_t half = ni / 2;
  for (size_t k = 0; k < ni; ++k) {
    // C consumes the low halves of A and B; D consumes the high halves, so
    // every first-column output drives exactly one second-column input.
    const size_t c_src = (k < half) ? a : b;
    const size_t c_port = (k < half) ? k : k - half;
    const size_t d_src = (k < half) ? b : a;
    const size_t d_port = (k < half) ? k + half : k;
    d.connect(c_src, c_port % no, c, k);
    d.connect(d_src, d_port % no, e, k);
  }
  for (size_t k = 0; k < ni; ++k) {
    d.primary_input("pa" + std::to_string(k), a, k);
    d.primary_input("pb" + std::to_string(k), b, k);
  }
  for (size_t k = 0; k < no; ++k) {
    d.primary_output("qc" + std::to_string(k), c, k);
    d.primary_output("qd" + std::to_string(k), e, k);
  }
  return d;
}

/// Bench-wide flags: --samples N, --quick, --delta X, --seed N.
struct BenchArgs {
  uint64_t samples = 0;
  double delta = 0.05;
  uint64_t seed = 2009;
  bool quick = false;

  /// `default_samples` is the program's Monte Carlo sample count when
  /// --samples is absent. --quick only caps the count in force.
  static BenchArgs parse(int argc, char** argv, uint64_t default_samples) {
    BenchArgs a;
    a.samples = default_samples;
    util::ArgParser p("bench", "hssta paper-reproduction program");
    p.option("--samples", &a.samples, "N", "Monte Carlo sample count");
    p.option("--delta", &a.delta, "X", "extraction criticality threshold");
    p.option("--seed", &a.seed, "S", "Monte Carlo RNG seed");
    p.flag("--quick", &a.quick, "cap sample counts for a fast smoke run");
    if (!p.parse(argc, argv)) std::exit(0);
    if (a.quick) a.samples = std::min<uint64_t>(a.samples, 1500);
    return a;
  }
};

/// Output directory for CSV artifacts.
inline std::string out_path(const std::string& file) {
  const std::filesystem::path dir = "bench_out";
  std::filesystem::create_directories(dir);
  return (dir / file).string();
}

}  // namespace hssta::bench
