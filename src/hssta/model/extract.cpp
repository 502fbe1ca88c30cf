#include "hssta/model/extract.hpp"

#include <algorithm>

#include "hssta/util/error.hpp"
#include "hssta/util/hash.hpp"
#include "hssta/util/timer.hpp"

namespace hssta::model {

using timing::EdgeId;
using timing::TimingGraph;
using timing::VertexId;

namespace {

/// Max-bottleneck-criticality path from `input` to `output` in the original
/// graph; returns the edge ids of the widest path (empty if disconnected).
std::vector<EdgeId> widest_path(const TimingGraph& g,
                                const std::vector<double>& cm, VertexId input,
                                VertexId output) {
  std::vector<double> width(g.num_vertex_slots(), -1.0);
  std::vector<EdgeId> via(g.num_vertex_slots(), timing::kNoEdge);
  width[input] = 2.0;  // above any criticality
  for (VertexId v : g.topo_order()) {
    if (width[v] < 0.0) continue;
    for (EdgeId e : g.vertex(v).fanout) {
      const VertexId w = g.edge(e).to;
      const double cand = std::min(width[v], cm[e]);
      if (cand > width[w]) {
        width[w] = cand;
        via[w] = e;
      }
    }
  }
  std::vector<EdgeId> path;
  if (width[output] < 0.0) return path;
  VertexId v = output;
  while (v != input) {
    const EdgeId e = via[v];
    HSSTA_ASSERT(e != timing::kNoEdge, "widest path chain broken");
    path.push_back(e);
    v = g.edge(e).from;
  }
  return path;
}

}  // namespace

// Tripwire (see flow/config.cpp): a new ExtractOptions field must be added
// to the hash below (or explicitly excluded as a pure speed knob) and the
// version tag bumped.
#if defined(__GLIBCXX__) && defined(__x86_64__)
static_assert(sizeof(ExtractOptions) == 16,
              "ExtractOptions changed: update fingerprint() and its tag");
#endif

uint64_t fingerprint(const ExtractOptions& opts) {
  return util::Fnv1a()
      .str("hssta.extract_options.v1")
      .f64(opts.criticality_threshold)
      .b(opts.repair_connectivity)
      .value();
}

double ExtractionStats::edge_ratio() const {
  return original_edges
             ? static_cast<double>(model_edges) /
                   static_cast<double>(original_edges)
             : 0.0;
}

double ExtractionStats::vertex_ratio() const {
  return original_vertices
             ? static_cast<double>(model_vertices) /
                   static_cast<double>(original_vertices)
             : 0.0;
}

Extraction extract_timing_model(const timing::BuiltGraph& built,
                                const variation::ModuleVariation& mv,
                                std::string name, BoundaryData boundary,
                                exec::Executor& ex,
                                const ExtractOptions& opts) {
  HSSTA_REQUIRE(opts.criticality_threshold >= 0.0 &&
                    opts.criticality_threshold < 1.0,
                "criticality threshold must lie in [0, 1)");
  const TimingGraph& original = built.graph;
  WallTimer timer;

  ExtractionStats stats;
  stats.original_vertices = original.num_live_vertices();
  stats.original_edges = original.num_live_edges();

  // Step 1 (paper Fig. 3): maximum criticality per edge — the dominant
  // cost, parallelized across the executor per input port.
  const core::CriticalityResult crit = core::compute_criticality(original, ex);
  stats.criticalities.reserve(stats.original_edges);
  for (EdgeId e = 0; e < original.num_edge_slots(); ++e)
    if (original.edge_alive(e))
      stats.criticalities.push_back(crit.max_criticality[e]);

  // Step 2: prune edges below delta on a working copy.
  TimingGraph g = original;
  for (EdgeId e = 0; e < g.num_edge_slots(); ++e) {
    if (!g.edge_alive(e)) continue;
    if (crit.max_criticality[e] < opts.criticality_threshold) {
      g.remove_edge(e);
      ++stats.edges_pruned;
    }
  }

  // Connectivity repair: every originally connected IO pair must stay
  // connected (the model's contract, Section III).
  if (opts.repair_connectivity) {
    const auto& ins = g.inputs();
    const auto& outs = g.outputs();
    for (size_t i = 0; i < ins.size(); ++i) {
      std::vector<uint8_t> reach = g.reachable_from(ins[i]);
      for (size_t j = 0; j < outs.size(); ++j) {
        if (!crit.io_delays.is_valid(i, j)) continue;  // never connected
        if (reach[outs[j]]) continue;
        const std::vector<EdgeId> path =
            widest_path(original, crit.max_criticality, ins[i], outs[j]);
        HSSTA_ASSERT(!path.empty(), "repair path must exist in the original");
        for (EdgeId e : path)
          if (!g.edge_alive(e))
            g.add_edge(original.edge(e).from, original.edge(e).to,
                       original.edge(e).delay);
        ++stats.pairs_repaired;
        reach = g.reachable_from(ins[i]);  // repair extends reachability
      }
    }
  }

  // Step 3: merge to fixpoint.
  stats.reduce = reduce_graph(g);

  stats.model_vertices = g.num_live_vertices();
  stats.model_edges = g.num_live_edges();
  stats.seconds = timer.seconds();

  TimingModel model(std::move(name), std::move(g), mv, std::move(boundary));
  return Extraction{std::move(model), std::move(stats)};
}

}  // namespace hssta::model
