#include "hssta/timing/sta.hpp"

#include <algorithm>
#include <ranges>

#include "hssta/util/error.hpp"

namespace hssta::timing {

double ScalarArrivals::max_over_outputs(const TimingGraph& g) const {
  bool has = false;
  double best = 0.0;
  for (VertexId v : g.outputs()) {
    if (!valid[v]) continue;
    best = has ? std::max(best, time[v]) : time[v];
    has = true;
  }
  HSSTA_REQUIRE(has, "no output port was reached");
  return best;
}

ScalarArrivals longest_path(const TimingGraph& g,
                            std::span<const double> edge_delays,
                            std::span<const VertexId> sources) {
  HSSTA_REQUIRE(edge_delays.size() == g.num_edge_slots(),
                "need one delay per edge slot");
  ScalarArrivals r;
  r.time.assign(g.num_vertex_slots(), 0.0);
  r.valid.assign(g.num_vertex_slots(), 0);
  if (sources.empty()) {
    for (VertexId v : g.inputs()) r.valid[v] = 1;
  } else {
    for (VertexId v : sources) {
      HSSTA_REQUIRE(g.vertex_alive(v), "longest-path source is dead");
      r.valid[v] = 1;
    }
  }
  // arrival[v] = max over reached fanin of arrival[from] + delay.
  for (VertexId v : g.topo_order()) {
    bool has = r.valid[v] != 0;
    double best = r.time[v];
    for (EdgeId e : g.vertex(v).fanin) {
      const TimingEdge& te = g.edge(e);
      if (!r.valid[te.from]) continue;
      const double cand = r.time[te.from] + edge_delays[e];
      best = has ? std::max(best, cand) : cand;
      has = true;
    }
    r.time[v] = best;
    r.valid[v] = has ? 1 : 0;
  }
  return r;
}

ScalarArrivals required_times(const TimingGraph& g,
                              std::span<const double> edge_delays,
                              double required_at_outputs) {
  HSSTA_REQUIRE(edge_delays.size() == g.num_edge_slots(),
                "need one delay per edge slot");
  ScalarArrivals r;
  r.time.assign(g.num_vertex_slots(), 0.0);
  r.valid.assign(g.num_vertex_slots(), 0);
  for (VertexId v : g.outputs()) {
    r.time[v] = required_at_outputs;
    r.valid[v] = 1;
  }
  // required[v] = min over fanout of required[to] - delay, walking the
  // topological order backwards; an output port stays clamped at the
  // deadline it was seeded with.
  for (VertexId v : std::views::reverse(g.topo_order())) {
    bool has = r.valid[v] != 0;
    double best = r.time[v];
    for (EdgeId e : g.vertex(v).fanout) {
      const TimingEdge& te = g.edge(e);
      if (!r.valid[te.to]) continue;
      const double cand = r.time[te.to] - edge_delays[e];
      best = has ? std::min(best, cand) : cand;
      has = true;
    }
    r.time[v] = best;
    r.valid[v] = has ? 1 : 0;
  }
  return r;
}

std::vector<double> corner_edge_delays(const TimingGraph& g, double k_sigma) {
  std::vector<double> d(g.num_edge_slots(), 0.0);
  for (EdgeId e = 0; e < g.num_edge_slots(); ++e) {
    if (!g.edge_alive(e)) continue;
    const CanonicalForm& c = g.edge(e).delay;
    d[e] = c.nominal() + k_sigma * c.sigma();
  }
  return d;
}

double corner_delay(const TimingGraph& g, double k_sigma) {
  const auto delays = corner_edge_delays(g, k_sigma);
  return longest_path(g, delays).max_over_outputs(g);
}

}  // namespace hssta::timing
