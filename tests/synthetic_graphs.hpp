// Seeded random timing-graph generator shared by the topological-order
// tests and the level-sweep differential fuzz harness. Unlike
// netlist::make_random_dag (which builds a full netlist and runs the whole
// pipeline), this builds bare timing::TimingGraph instances directly, so a
// fuzz run can sweep hundreds of structural shapes — wide, narrow, deep,
// heavy-fanin, multi-port, partially disconnected — in milliseconds.

#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "hssta/stats/rng.hpp"
#include "hssta/timing/graph.hpp"

namespace hssta::testing {

/// Shape of one synthetic graph. Layered construction: `depth` layers of
/// roughly `width` internal vertices each between the input and output
/// ports; every non-input vertex draws 1..max_fanin edges from earlier
/// vertices (biased toward the previous layer so the depth is structural).
struct SyntheticGraphSpec {
  size_t num_inputs = 4;
  size_t num_outputs = 4;
  size_t width = 8;
  size_t depth = 4;
  size_t max_fanin = 3;
  size_t dim = 4;
};

/// Draw a spec with varying width/depth/fanin from `rng`: 1-6 inputs (often
/// fewer than the worker threads of a parallel run), layers 2-41 vertices
/// wide.
inline SyntheticGraphSpec random_spec(stats::Rng& rng) {
  SyntheticGraphSpec s;
  s.num_inputs = 1 + rng.uniform_index(6);
  s.num_outputs = 1 + rng.uniform_index(6);
  s.width = 2 + rng.uniform_index(40);
  s.depth = 1 + rng.uniform_index(8);
  s.max_fanin = 1 + rng.uniform_index(4);
  s.dim = rng.uniform_index(6);  // includes dim 0 (pure random forms)
  return s;
}

/// A few-input wide DAG: 2 inputs feeding 48-wide layers, fewer inputs than
/// the 4 threads of the widest parallel run.
inline SyntheticGraphSpec few_input_wide_spec() {
  SyntheticGraphSpec spec;
  spec.num_inputs = 2;
  spec.num_outputs = 5;
  spec.width = 48;
  spec.depth = 6;
  spec.max_fanin = 3;
  spec.dim = 4;
  return spec;
}

/// A random positive canonical delay.
inline timing::CanonicalForm random_delay(size_t dim, stats::Rng& rng) {
  timing::CanonicalForm f(dim);
  f.set_nominal(rng.uniform(0.1, 1.0));
  for (size_t k = 0; k < dim; ++k) f.corr()[k] = 0.03 * rng.normal();
  f.set_random(rng.uniform(0.005, 0.05));
  return f;
}

/// Generate an acyclic graph for `spec`: vertex ids increase along every
/// edge by construction. Not necessarily fully connected — some outputs may
/// be unreachable from some inputs, which is exactly the validity-flag
/// territory the sweeps must agree on.
inline timing::TimingGraph make_synthetic_graph(const SyntheticGraphSpec& spec,
                                                stats::Rng& rng) {
  timing::TimingGraph g(spec.dim);
  std::vector<timing::VertexId> pool;  // candidate edge sources, in id order

  for (size_t i = 0; i < spec.num_inputs; ++i)
    pool.push_back(g.add_vertex("in" + std::to_string(i), /*is_input=*/true));

  size_t layer_begin = 0;  // index into `pool` of the previous layer
  for (size_t d = 0; d < spec.depth; ++d) {
    const size_t prev_begin = layer_begin;
    layer_begin = pool.size();
    // +-25% jitter around the requested width, at least one vertex.
    const size_t layer_width = 1 + rng.uniform_index(std::max<size_t>(
                                       1, spec.width + spec.width / 4));
    const std::string layer = std::to_string(d);
    for (size_t k = 0; k < layer_width; ++k) {
      const std::string index = std::to_string(k);
      const timing::VertexId v = g.add_vertex("g" + layer + "_" + index);
      const size_t fanin = 1 + rng.uniform_index(spec.max_fanin);
      for (size_t f = 0; f < fanin; ++f) {
        // Bias 3:1 toward the previous layer so depth is structural, with
        // occasional long skip edges from anywhere earlier.
        const bool local = prev_begin < layer_begin && rng.uniform() < 0.75;
        const size_t lo = local ? prev_begin : 0;
        const timing::VertexId src =
            pool[lo + rng.uniform_index(layer_begin - lo)];
        g.add_edge(src, v, random_delay(spec.dim, rng));
      }
      pool.push_back(v);
    }
  }

  for (size_t j = 0; j < spec.num_outputs; ++j) {
    const timing::VertexId v =
        g.add_vertex("out" + std::to_string(j), /*is_input=*/false,
                     /*is_output=*/true);
    const size_t fanin = 1 + rng.uniform_index(spec.max_fanin);
    for (size_t f = 0; f < fanin; ++f) {
      const timing::VertexId src = pool[rng.uniform_index(pool.size())];
      g.add_edge(src, v, random_delay(spec.dim, rng));
    }
    // Occasionally let an output drive a later output, so the backward
    // sweeps see seeded vertices with live fanout.
    if (rng.uniform() < 0.25) pool.push_back(v);
  }
  return g;
}

}  // namespace hssta::testing
