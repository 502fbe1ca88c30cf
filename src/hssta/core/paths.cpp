#include "hssta/core/paths.hpp"

#include <algorithm>
#include <queue>

#include "hssta/core/criticality.hpp"
#include "hssta/timing/statops.hpp"
#include "hssta/util/error.hpp"

namespace hssta::core {

using timing::CanonicalForm;
using timing::EdgeId;
using timing::TimingGraph;
using timing::VertexId;

std::string CriticalPath::format(const TimingGraph& g) const {
  std::string out;
  for (size_t i = 0; i < vertices.size(); ++i) {
    if (i) out += " -> ";
    out += g.vertex(vertices[i]).name;
  }
  return out;
}

std::vector<CriticalPath> report_critical_paths(const TimingGraph& g,
                                                size_t k) {
  HSSTA_REQUIRE(k > 0, "need k >= 1 paths");
  const ArrivalTightness fused = arrival_tightness(g);
  const timing::PropagationResult& arrivals = fused.arrivals;
  const std::vector<double>& tp = fused.tp;

  // Output tightness: which output port carries the circuit max.
  std::vector<VertexId> out_vertices;
  for (VertexId v : g.outputs())
    if (arrivals.valid[v]) out_vertices.push_back(v);
  HSSTA_REQUIRE(!out_vertices.empty(), "no output port was reached");
  timing::FormBank out_arrivals(out_vertices.size(), g.dim());
  for (size_t j = 0; j < out_vertices.size(); ++j)
    timing::form_copy(out_arrivals.row(j), arrivals.time.row(out_vertices[j]));
  std::vector<double> out_tp;
  timing::FormBank split_scratch;
  timing::tightness_split_into(out_arrivals, out_vertices.size(), out_tp,
                               split_scratch);

  // Best-first backward walk: a state is a partial path (suffix towards its
  // output) scored by the product of tightness probabilities, which only
  // shrinks on expansion — so the k first completions are the top-k.
  struct State {
    double score;
    VertexId v;
    std::vector<EdgeId> suffix;  // edges from v to the output, v-first
    bool operator<(const State& o) const { return score < o.score; }
  };
  std::priority_queue<State> queue;
  for (size_t j = 0; j < out_vertices.size(); ++j)
    if (out_tp[j] > 0.0) queue.push(State{out_tp[j], out_vertices[j], {}});

  std::vector<CriticalPath> paths;
  // Safety valve against adversarial fan-in explosions.
  size_t pops_left = std::max<size_t>(10000, 64 * k * g.num_vertex_slots());
  while (!queue.empty() && paths.size() < k && pops_left-- > 0) {
    State s = queue.top();
    queue.pop();
    const timing::TimingVertex& tv = g.vertex(s.v);
    bool expanded = false;
    for (EdgeId e : tv.fanin) {
      if (!arrivals.valid[g.edge(e).from] || tp[e] <= 0.0) continue;
      State child;
      child.score = s.score * tp[e];
      child.v = g.edge(e).from;
      child.suffix.reserve(s.suffix.size() + 1);
      child.suffix.push_back(e);
      child.suffix.insert(child.suffix.end(), s.suffix.begin(),
                          s.suffix.end());
      queue.push(std::move(child));
      expanded = true;
    }
    if (expanded) continue;

    // Launch point reached: materialize the path input -> output.
    CriticalPath p;
    p.criticality = s.score;
    p.edges = std::move(s.suffix);
    p.delay = CanonicalForm(g.dim());
    p.vertices.push_back(s.v);
    for (EdgeId e : p.edges) {
      p.delay += g.edge(e).delay;
      p.vertices.push_back(g.edge(e).to);
    }
    paths.push_back(std::move(p));
  }
  return paths;
}

}  // namespace hssta::core
