#include "hssta/core/criticality.hpp"

#include <algorithm>
#include <ranges>

#include "hssta/timing/propagate.hpp"
#include "hssta/timing/statops.hpp"
#include "hssta/util/error.hpp"

namespace hssta::core {

using timing::EdgeId;
using timing::MaxDiagnostics;
using timing::PropagationResult;
using timing::TimingGraph;
using timing::VertexId;

namespace {

/// Per-worker scratch for the per-input criticality passes: propagation
/// buffers, tightness candidates, the batched backward frontier (one row of
/// |outputs| vertex-criticality masses per vertex slot) and this worker's
/// cm accumulator (merged by max after a fan-out region).
struct CritScratch {
  timing::PropagationResult prop;
  std::vector<double> tp;
  timing::FormBank cand;           ///< fanin arrival candidates, one row each
  std::vector<EdgeId> cand_edge;
  timing::FormBank split_scratch;  ///< prefix/suffix folds of the split
  std::vector<double> split;
  std::vector<double> vc;          ///< row-major [vertex slot][output index]
  std::vector<uint8_t> row_active; ///< row has mass (or is a seeded output)
  std::vector<double> cm;
  MaxDiagnostics diag;
};

/// Fanin tightness probabilities for one arrival propagation: sc.tp[e] =
/// Prob{edge e carries the maximal fanin arrival of its sink}, renormalized
/// per vertex so they partition exactly. Each vertex's candidates are
/// assembled into rows of the scratch `cand` bank and split in place — a
/// warm scratch makes the whole pass allocation-free.
void fanin_tightness_into(const TimingGraph& g,
                          const PropagationResult& arrival,
                          MaxDiagnostics* diag, CritScratch& sc) {
  sc.tp.assign(g.num_edge_slots(), 0.0);
  for (VertexId v : g.topo_order()) {
    const auto& fanin = g.vertex(v).fanin;
    if (fanin.empty()) continue;
    sc.cand_edge.clear();
    if (sc.cand.rows() < fanin.size() || sc.cand.dim() != g.dim())
      sc.cand.reset(fanin.size(), g.dim());
    size_t n = 0;
    for (EdgeId e : fanin) {
      const timing::TimingEdge& te = g.edge(e);
      if (!arrival.valid[te.from]) continue;
      timing::add_into(sc.cand.row(n), arrival.time.row(te.from),
                       te.delay.view());
      sc.cand_edge.push_back(e);
      ++n;
    }
    if (n == 0) continue;
    timing::tightness_split_into(sc.cand, n, sc.split, sc.split_scratch,
                                 diag);
    for (size_t t = 0; t < n; ++t) sc.tp[sc.cand_edge[t]] = sc.split[t];
  }
}

/// The batched backward pass's gather schedule. For every vertex u,
/// edges[offsets[u] .. offsets[u+1]) lists u's live fanout edges in exactly
/// the order the per-(i, j) scalar scatter pass (the test oracle in
/// tests/oracles.hpp) would have accumulated their contributions into
/// vc(u): by sink position in reverse topological order, then by the sink's
/// fanin-list order. Gathering in this order reproduces the scatter pass's
/// floating-point sums bit for bit.
struct BackwardPlan {
  std::vector<size_t> offsets;  ///< per vertex slot (+1), into `edges`
  std::vector<EdgeId> edges;
};

BackwardPlan make_backward_plan(const TimingGraph& g) {
  const auto reverse_order = std::views::reverse(g.topo_order());
  BackwardPlan plan;
  plan.offsets.assign(g.num_vertex_slots() + 1, 0);
  for (VertexId v : reverse_order)
    for (EdgeId e : g.vertex(v).fanin) ++plan.offsets[g.edge(e).from + 1];
  for (size_t u = 1; u < plan.offsets.size(); ++u)
    plan.offsets[u] += plan.offsets[u - 1];
  plan.edges.resize(plan.offsets.back());
  std::vector<size_t> cursor(plan.offsets.begin(), plan.offsets.end() - 1);
  for (VertexId v : reverse_order)
    for (EdgeId e : g.vertex(v).fanin)
      plan.edges[cursor[g.edge(e).from]++] = e;
  return plan;
}

/// Ensure the frontier matches (V x J) and clear it. Only rows flagged
/// active by the previous pass are touched, so per-input reset cost tracks
/// the mass actually propagated, not the full V * J footprint.
void reset_frontier(const TimingGraph& g, size_t num_outs, CritScratch& sc) {
  const size_t want = g.num_vertex_slots() * num_outs;
  if (sc.vc.size() != want || sc.row_active.size() != g.num_vertex_slots()) {
    sc.vc.assign(want, 0.0);
    sc.row_active.assign(g.num_vertex_slots(), 0);
    return;
  }
  for (VertexId v = 0; v < sc.row_active.size(); ++v) {
    if (!sc.row_active[v]) continue;
    std::fill_n(sc.vc.begin() + static_cast<size_t>(v) * num_outs, num_outs,
                0.0);
    sc.row_active[v] = 0;
  }
}

/// Seed the frontier: vc(output j, j) = 1 for every output the current
/// input's arrival reaches (unreached outputs contribute no pass, exactly
/// like the scatter reference).
void seed_frontier(const std::vector<VertexId>& outs,
                   const PropagationResult& arrival, size_t num_outs,
                   CritScratch& sc) {
  for (size_t j = 0; j < num_outs; ++j) {
    if (!arrival.valid[outs[j]]) continue;
    sc.vc[static_cast<size_t>(outs[j]) * num_outs + j] = 1.0;
    sc.row_active[outs[j]] = 1;
  }
}

/// Batched backward pass over all outputs for one input. Visiting u in
/// reverse topological order gathers its frontier row: pull vc(sink) *
/// tp(e) over u's fanout edges (in scatter order) for every output at
/// once, folding each contribution into `combine`.
template <typename Combine>
void batched_backward(const TimingGraph& g, const BackwardPlan& plan,
                      const std::vector<VertexId>& outs,
                      const PropagationResult& arrival, double prune_epsilon,
                      CritScratch& sc, Combine&& combine) {
  const size_t num_outs = outs.size();
  reset_frontier(g, num_outs, sc);
  seed_frontier(outs, arrival, num_outs, sc);
  for (VertexId u : std::views::reverse(g.topo_order())) {
    double* row = sc.vc.data() + static_cast<size_t>(u) * num_outs;
    bool active = sc.row_active[u] != 0;  // a seeded output row stays active
    for (size_t k = plan.offsets[u]; k < plan.offsets[u + 1]; ++k) {
      const EdgeId e = plan.edges[k];
      const VertexId sink = g.edge(e).to;
      if (!sc.row_active[sink]) continue;
      const double tp_e = sc.tp[e];
      const double* sink_row =
          sc.vc.data() + static_cast<size_t>(sink) * num_outs;
      for (size_t j = 0; j < num_outs; ++j) {
        const double mass = sink_row[j];
        if (mass <= prune_epsilon) continue;  // the scatter pass's cutoff
        const double c = mass * tp_e;
        if (c <= 0.0) continue;
        combine(e, c);
        row[j] += c;
        active = true;
      }
    }
    sc.row_active[u] = active ? 1 : 0;
  }
}

}  // namespace

CriticalityResult compute_criticality(const TimingGraph& g,
                                      exec::Executor& ex,
                                      const CriticalityOptions& opts) {
  const auto& ins = g.inputs();
  const auto& outs = g.outputs();
  HSSTA_REQUIRE(!ins.empty() && !outs.empty(),
                "criticality needs input and output ports");

  CriticalityResult res;
  res.max_criticality.assign(g.num_edge_slots(), 0.0);
  res.io_delays = DelayMatrix(ins.size(), outs.size(), g.dim());

  const BackwardPlan plan = make_backward_plan(g);

  // Exclusive spans the reset -> region -> merge sequence so concurrent
  // callers sharing `ex` serialize instead of interleaving workspaces.
  const exec::Executor::Exclusive scope(ex);
  for (size_t w = 0; w < ex.num_workspaces(); ++w) {
    CritScratch& sc = ex.workspace(w).get<CritScratch>();
    sc.cm.assign(g.num_edge_slots(), 0.0);
    sc.diag = MaxDiagnostics{};
  }

  // One work item per input port: forward canonical propagation + fanin
  // tightness, then one batched backward pass over all outputs. Each
  // worker folds into its own cm accumulator; io_delays rows are
  // per-input, so they are written without synchronization.
  ex.parallel_for(ins.size(), [&](size_t i, exec::Workspace& ws) {
    CritScratch& sc = ws.get<CritScratch>();
    const VertexId sources[] = {ins[i]};
    timing::propagate_arrivals_into(g, sources, sc.prop);
    sc.diag += sc.prop.diagnostics;
    fanin_tightness_into(g, sc.prop, &sc.diag, sc);

    batched_backward(g, plan, outs, sc.prop, opts.prune_epsilon, sc,
                     [&](EdgeId e, double c) {
                       if (c > sc.cm[e]) sc.cm[e] = c;
                     });

    for (size_t j = 0; j < outs.size(); ++j)
      if (sc.prop.valid[outs[j]])
        res.io_delays.set(i, j, sc.prop.time.form(outs[j]));
  });

  // Merge the per-worker accumulators. max over doubles and integer sums
  // are order-insensitive, so this equals the serial fold bit-for-bit.
  for (size_t w = 0; w < ex.num_workspaces(); ++w) {
    const CritScratch& sc = ex.workspace(w).get<CritScratch>();
    res.diagnostics += sc.diag;
    for (size_t e = 0; e < res.max_criticality.size(); ++e)
      if (sc.cm[e] > res.max_criticality[e])
        res.max_criticality[e] = sc.cm[e];
  }
  // Reconvergence can push the tp partition marginally above 1; clamp.
  for (double& c : res.max_criticality) c = std::min(c, 1.0);
  return res;
}

CriticalityResult compute_criticality(const TimingGraph& g,
                                      const CriticalityOptions& opts) {
  exec::SerialExecutor ex;
  return compute_criticality(g, ex, opts);
}

// Declared in paths.hpp; lives here to share the tightness machinery.
std::vector<double> arrival_tightness(const TimingGraph& g,
                                      const PropagationResult& arrivals) {
  CritScratch sc;
  fanin_tightness_into(g, arrivals, nullptr, sc);
  return std::move(sc.tp);
}

}  // namespace hssta::core
