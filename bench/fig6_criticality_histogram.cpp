// Reproduction of the paper's Fig. 6: the distribution of edge maximum
// criticalities (cm) in c7552. The published histogram is strongly bimodal
// — most edges sit near criticality 0 or 1 — which is exactly what makes
// threshold pruning effective.
//
// Flags: --delta X (reporting threshold, default 0.05).

#include <cstdio>
#include <iostream>

#include "common.hpp"
#include "hssta/core/criticality.hpp"
#include "hssta/stats/histogram.hpp"
#include "hssta/util/ascii_plot.hpp"
#include "hssta/util/csv.hpp"
#include "hssta/util/timer.hpp"

int main(int argc, char** argv) {
  using namespace hssta;
  // No Monte Carlo here: only --delta is read.
  const bench::BenchArgs args = bench::BenchArgs::parse(argc, argv, 0);

  std::printf("Fig. 6 reproduction: edge criticality histogram for c7552\n\n");
  const flow::Module module = bench::module_for_iscas("c7552");
  const timing::TimingGraph& g = module.graph();
  std::printf("circuit: %zu vertices, %zu edges, %zu inputs, %zu outputs\n",
              g.num_live_vertices(), g.num_live_edges(), g.inputs().size(),
              g.outputs().size());

  WallTimer timer;
  const core::CriticalityResult crit = core::compute_criticality(g);
  std::printf("criticality computation: %.2f s\n\n", timer.seconds());

  stats::Histogram hist(0.0, 1.0, 20);
  size_t below = 0, above = 0, total = 0;
  for (timing::EdgeId e = 0; e < g.num_edge_slots(); ++e) {
    if (!g.edge_alive(e)) continue;
    const double c = crit.max_criticality[e];
    hist.add(c);
    ++total;
    if (c < args.delta) ++below;
    if (c > 1.0 - args.delta) ++above;
  }

  plot_histogram(std::cout, hist.edges(), hist.counts(), 60,
                 "Edge maximum criticality cm in c7552 (20 bins)");

  CsvWriter csv(bench::out_path("fig6_criticality_histogram.csv"));
  csv.write_row(std::vector<std::string>{"bin_lo", "bin_hi", "count"});
  const auto edges = hist.edges();
  for (size_t b = 0; b < hist.bins(); ++b)
    csv.write_row(std::vector<double>{edges[b], edges[b + 1],
                                      static_cast<double>(hist.count(b))});

  std::printf(
      "\nedges with cm < %.2f (prunable): %zu of %zu (%.1f%%)\n"
      "edges with cm > %.2f (firmly critical): %zu (%.1f%%)\n"
      "paper's observation: criticalities concentrate near 0 and 1, so a\n"
      "small delta removes most edges without hurting the delay matrix.\n"
      "CSV: %s\n",
      args.delta, below, total, 100.0 * below / total, 1.0 - args.delta,
      above, 100.0 * above / total,
      bench::out_path("fig6_criticality_histogram.csv").c_str());
  return 0;
}
