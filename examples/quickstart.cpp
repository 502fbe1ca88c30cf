// Quickstart: statistical static timing analysis of one combinational
// module through the flow:: facade.
//
//   1. get a netlist (here: a generated 8-bit ripple adder) and wrap it in
//      a flow::Module — placement, variation model and timing graph are
//      built lazily behind the handle,
//   2. run block-based SSTA and query the delay distribution,
//   3. compare with corner STA and a Monte Carlo cross-check.
//
// Build: part of the default CMake build; run: ./examples/quickstart

#include <cstdio>

#include "hssta/flow/flow.hpp"
#include "hssta/netlist/generate.hpp"
#include "hssta/timing/sta.hpp"

int main() {
  using namespace hssta;

  // 1. Circuit: an 8-bit ripple-carry adder from the bundled generators,
  //    analyzed with the paper's 90nm setup (Leff/Tox/Vth with
  //    0.42/0.53/0.05 variance split, 0.92-neighbour correlation) — the
  //    default flow::Config. (Any netlist works — see
  //    flow::Module::from_file for .bench or BLIF input.)
  const flow::Module m = flow::Module::from_netlist(
      netlist::make_ripple_adder(8, *flow::default_library()), flow::Config());
  std::printf("circuit: %s — %zu gates, %zu nets, depth %zu\n",
              m.name().c_str(), m.netlist().num_gates(),
              m.netlist().num_nets(), m.netlist().depth());
  std::printf("die: %.1f x %.1f um, %zu correlation grids, %zu variables\n",
              m.placement().die.width, m.placement().die.height,
              m.variation().partition.num_grids(), m.variation().space->dim());

  // 2. Statistical STA: one call, cached behind the handle.
  const timing::CanonicalForm& delay = m.delay();
  std::printf("\nSSTA delay: mean %.4f ns, sigma %.4f ns (%.1f%%)\n",
              delay.nominal(), delay.sigma(),
              100.0 * delay.sigma() / delay.nominal());
  for (double q : {0.50, 0.90, 0.99, 0.9987})
    std::printf("  %.2f%% quantile: %.4f ns\n", 100.0 * q, delay.quantile(q));

  // 3a. Corner STA comparison: the classical 3-sigma corner ignores both
  //     path averaging and spatial correlation — quantify its pessimism.
  const double corner3 = timing::corner_delay(m.graph(), 3.0);
  std::printf("\ncorner STA (every edge at +3 sigma): %.4f ns\n", corner3);
  std::printf("pessimism vs SSTA 99.87%% quantile: +%.1f%%\n",
              100.0 * (corner3 / delay.quantile(0.9987) - 1.0));

  // 3b. Monte Carlo cross-check on the physical model.
  const stats::EmpiricalDistribution& mcd =
      m.monte_carlo(flow::McOptions{5000, 1});
  std::printf("\nMonte Carlo (5000 samples): mean %.4f ns, sigma %.4f ns\n",
              mcd.mean(), mcd.stddev());
  std::printf("SSTA vs MC: mean %+.2f%%, sigma %+.2f%%\n",
              100.0 * (delay.nominal() / mcd.mean() - 1.0),
              100.0 * (delay.sigma() / mcd.stddev() - 1.0));
  std::printf("\ntiming yield at the mean+2.5-sigma period: %.2f%%\n",
              100.0 * m.ssta().timing_yield(delay.quantile(0.9938)));
  return 0;
}
