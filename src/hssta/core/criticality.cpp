#include "hssta/core/criticality.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <ranges>

#include "hssta/timing/statops.hpp"
#include "hssta/util/error.hpp"

namespace hssta::core {

using timing::EdgeId;
using timing::FormView;
using timing::MaxDiagnostics;
using timing::PropagationResult;
using timing::TimingGraph;
using timing::VertexId;

namespace {

/// The batched backward pass's gather schedule. For every vertex u,
/// edges[offsets[u] .. offsets[u+1]) lists u's live fanout edges in exactly
/// the order the per-(i, j) scalar scatter pass (the test oracle in
/// tests/oracles.hpp) would have accumulated their contributions into
/// vc(u): by sink position in reverse topological order, then by the sink's
/// fanin-list order. Gathering in this order reproduces the scatter pass's
/// floating-point sums bit for bit. sinks[k] caches to(edges[k]).
///
/// reach[reach_offsets[v] .. reach_offsets[v+1]) lists, in ascending order,
/// the output indices j that vertex v reaches structurally. A frontier
/// column j of a vertex outside that list is never written, so it holds
/// exactly 0 and the gather skips it.
struct BackwardPlan {
  std::vector<size_t> offsets;  ///< per vertex slot (+1), into edges/sinks
  std::vector<EdgeId> edges;
  std::vector<VertexId> sinks;
  std::vector<size_t> reach_offsets;  ///< per vertex slot (+1), into reach
  std::vector<uint32_t> reach;
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
  plan.sinks.resize(plan.offsets.back());
  std::vector<size_t> cursor(plan.offsets.begin(), plan.offsets.end() - 1);
  for (VertexId v : reverse_order) {
    for (EdgeId e : g.vertex(v).fanin) {
      const size_t k = cursor[g.edge(e).from]++;
      plan.edges[k] = e;
      plan.sinks[k] = v;
    }
  }

  // Output reachability as one bitset row per vertex, unioned over the
  // fanout in reverse topological order, then flattened to sorted lists.
  const auto& outs = g.outputs();
  HSSTA_REQUIRE(outs.size() <= UINT32_MAX, "too many output ports");
  const size_t words = (outs.size() + 63) / 64;
  std::vector<uint64_t> bits(g.num_vertex_slots() * words, 0);
  for (size_t j = 0; j < outs.size(); ++j)
    bits[outs[j] * words + j / 64] |= uint64_t{1} << (j % 64);
  for (VertexId v : reverse_order)
    for (EdgeId e : g.vertex(v).fanout)
      for (size_t w = 0; w < words; ++w)
        bits[v * words + w] |= bits[g.edge(e).to * words + w];
  plan.reach_offsets.assign(g.num_vertex_slots() + 1, 0);
  for (VertexId v = 0; v < g.num_vertex_slots(); ++v) {
    size_t n = 0;
    for (size_t w = 0; w < words; ++w)
      n += static_cast<size_t>(std::popcount(bits[v * words + w]));
    plan.reach_offsets[v + 1] = plan.reach_offsets[v] + n;
  }
  plan.reach.reserve(plan.reach_offsets.back());
  for (VertexId v = 0; v < g.num_vertex_slots(); ++v) {
    for (size_t w = 0; w < words; ++w) {
      for (uint64_t b = bits[v * words + w]; b != 0; b &= b - 1)
        plan.reach.push_back(
            static_cast<uint32_t>(w * 64 + std::countr_zero(b)));
    }
  }
  return plan;
}

/// Per-slot scratch for the per-input criticality passes: the fused
/// forward sweep's state, the batched backward frontier (one row of
/// |outputs| vertex-criticality masses per vertex slot) and this slot's
/// cm accumulator (merged by max after a fan-out region). Cache-line
/// aligned: the slots sit side by side in one vector, and the sweep bumps
/// its diagnostics counters on every max operation.
struct alignas(64) CritScratch {
  ArrivalTightness fwd;
  std::vector<double> vc;           ///< row-major [vertex slot][output index]
  std::vector<uint8_t> row_active;  ///< row has mass (or is a seeded output)
  std::vector<double> cm;
  MaxDiagnostics diag;
};

/// Batched backward pass over all outputs for the input whose forward state
/// is `sc.fwd`, folding every contribution c_ij(e) into sc.cm[e] by max.
/// Expects a clean frontier and leaves one: the rows this input wrote are
/// zeroed again on the way out.
void batched_backward(const BackwardPlan& plan,
                      const std::vector<VertexId>& outs, double prune_epsilon,
                      CritScratch& sc) {
  const size_t num_outs = outs.size();
  const ArrivalTightness& fwd = sc.fwd;
  // Seed vc(output j, j) = 1 for every output the input's arrival reaches
  // (unreached outputs contribute no pass, exactly like the scatter
  // reference).
  for (size_t j = 0; j < num_outs; ++j) {
    if (!fwd.arrivals.valid[outs[j]]) continue;
    sc.vc[outs[j] * num_outs + j] = 1.0;
    sc.row_active[outs[j]] = 1;
  }
  // Only cone vertices can carry mass: an unreached vertex has no tp > 0
  // edge into any sink.
  for (VertexId u : std::views::reverse(fwd.cone)) {
    double* row = sc.vc.data() + u * num_outs;
    bool active = sc.row_active[u] != 0;  // a seeded output row stays active
    for (size_t k = plan.offsets[u]; k < plan.offsets[u + 1]; ++k) {
      const VertexId sink = plan.sinks[k];
      if (!sc.row_active[sink]) continue;
      const EdgeId e = plan.edges[k];
      const double tp_e = fwd.tp[e];
      const double* sink_row = sc.vc.data() + sink * num_outs;
      double c_max = 0.0;
      for (size_t r = plan.reach_offsets[sink];
           r < plan.reach_offsets[sink + 1]; ++r) {
        const size_t j = plan.reach[r];
        const double mass = sink_row[j];
        if (mass <= prune_epsilon) continue;  // the scatter pass's cutoff
        const double c = mass * tp_e;
        if (c <= 0.0) continue;
        if (c > c_max) c_max = c;
        row[j] += c;
        active = true;
      }
      if (c_max > sc.cm[e]) sc.cm[e] = c_max;
    }
    sc.row_active[u] = active ? 1 : 0;
  }
  for (VertexId v : fwd.cone) {
    if (!sc.row_active[v]) continue;
    double* row = sc.vc.data() + v * num_outs;
    for (size_t r = plan.reach_offsets[v]; r < plan.reach_offsets[v + 1]; ++r)
      row[plan.reach[r]] = 0.0;
    sc.row_active[v] = 0;
  }
}

}  // namespace

void arrival_tightness_into(const TimingGraph& g,
                            std::span<const VertexId> sources,
                            ArrivalTightness& out) {
  PropagationResult& r = out.arrivals;
  ArrivalTightness::Scratch& sc = out.scratch;
  // No zero-fill: each reached row is written before it is read, and the
  // sources' rows are cleared below.
  r.diagnostics = MaxDiagnostics{};
  if (r.time.rows() != g.num_vertex_slots() || r.time.dim() != g.dim())
    r.time.reset(g.num_vertex_slots(), g.dim());
  r.valid.assign(g.num_vertex_slots(), 0);
  if (out.tp.size() != g.num_edge_slots())
    out.tp.assign(g.num_edge_slots(), 0.0);
  out.cone.clear();
  const std::span<const VertexId> seeds =
      sources.empty() ? std::span<const VertexId>(g.inputs()) : sources;
  for (VertexId v : seeds) {
    HSSTA_REQUIRE(g.vertex_alive(v), "propagation source is dead");
    HSSTA_REQUIRE(g.vertex(v).fanin.empty(),
                  "a fused-sweep source must have no fanin");
    r.valid[v] = 1;
    const FormView row = r.time.row(v);
    std::fill_n(row.nominal, r.time.stride(), 0.0);
  }

  for (VertexId v : g.topo_order()) {
    if (r.valid[v]) {  // a source
      out.cone.push_back(v);
      continue;
    }
    const auto& fanin = g.vertex(v).fanin;
    if (sc.cand.rows() < fanin.size() || sc.cand.dim() != g.dim())
      sc.cand.reset(fanin.size(), g.dim());
    sc.cand_edge.clear();
    for (EdgeId e : fanin) {
      const timing::TimingEdge& te = g.edge(e);
      if (!r.valid[te.from]) {
        out.tp[e] = 0.0;
        continue;
      }
      timing::add_into(sc.cand.row(sc.cand_edge.size()), r.time.row(te.from),
                       te.delay.view());
      sc.cand_edge.push_back(e);
    }
    const size_t k = sc.cand_edge.size();
    if (k == 0) continue;  // unreached

    // The arrival is the left-to-right max fold of the candidates, the same
    // fold propagate_arrivals_into runs, and its tightness split comes
    // from the same operations.
    const FormView dst = r.time.row(v);
    if (k == 1) {
      timing::form_copy(dst, sc.cand.row(0));
      out.tp[sc.cand_edge[0]] = 1.0;
    } else if (k == 2) {
      const double t = timing::statistical_max_into(
          dst, sc.cand.row(0), sc.cand.row(1), &r.diagnostics);
      out.tp[sc.cand_edge[0]] = t;
      out.tp[sc.cand_edge[1]] = 1.0 - t;
    } else {
      timing::tightness_split_into(sc.cand, k, sc.split, sc.folds,
                                   &r.diagnostics);
      timing::form_copy(dst, sc.folds.row(k - 1));  // the prefix fold
      for (size_t t = 0; t < k; ++t) out.tp[sc.cand_edge[t]] = sc.split[t];
    }
    r.valid[v] = 1;
    out.cone.push_back(v);
  }
}

ArrivalTightness arrival_tightness(const TimingGraph& g,
                                   std::span<const VertexId> sources) {
  ArrivalTightness out;
  arrival_tightness_into(g, sources, out);
  return out;
}

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

  // Per-slot scratch, private to this call. The frontier is cleared in
  // full once per call; within the call each input clears only the rows it
  // wrote.
  std::vector<CritScratch> scratch(ex.concurrency());
  for (CritScratch& sc : scratch) {
    sc.cm.assign(g.num_edge_slots(), 0.0);
    sc.vc.assign(g.num_vertex_slots() * outs.size(), 0.0);
    sc.row_active.assign(g.num_vertex_slots(), 0);
  }

  // One work item per input port: the fused forward sweep, then one
  // batched backward pass over all outputs. Each slot folds into its own
  // cm accumulator; io_delays rows are per-input, so they are written
  // without synchronization.
  ex.parallel_for(ins.size(), [&](size_t i, size_t slot) {
    CritScratch& sc = scratch[slot];
    const VertexId sources[] = {ins[i]};
    arrival_tightness_into(g, sources, sc.fwd);
    sc.diag += sc.fwd.arrivals.diagnostics;
    batched_backward(plan, outs, opts.prune_epsilon, sc);

    const PropagationResult& arrival = sc.fwd.arrivals;
    for (size_t j = 0; j < outs.size(); ++j)
      if (arrival.valid[outs[j]])
        res.io_delays.set(i, j, arrival.time.form(outs[j]));
  });

  // Merge the per-slot accumulators. max over doubles and integer sums
  // are order-insensitive, so this equals the serial fold bit-for-bit.
  for (const CritScratch& sc : scratch) {
    res.diagnostics += sc.diag;
    for (size_t e = 0; e < res.max_criticality.size(); ++e)
      if (sc.cm[e] > res.max_criticality[e])
        res.max_criticality[e] = sc.cm[e];
  }
  // Reconvergence can push the tp partition marginally above 1; clamp.
  for (double& c : res.max_criticality) c = std::min(c, 1.0);
  return res;
}

}  // namespace hssta::core
