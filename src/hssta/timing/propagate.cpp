#include "hssta/timing/propagate.hpp"

#include <ranges>

#include "hssta/util/error.hpp"

namespace hssta::timing {

namespace {

/// Shared initialization: recycle r's buffers, seed `seeds` (or `ports`
/// when the span is empty) at time 0. FormBank::reset zero-fills in place,
/// so a reused result does not reallocate.
void reset_result(const TimingGraph& g, PropagationResult& r,
                  std::span<const VertexId> seeds,
                  const std::vector<VertexId>& ports, const char* what) {
  r.diagnostics = MaxDiagnostics{};
  r.time.reset(g.num_vertex_slots(), g.dim());
  r.valid.assign(g.num_vertex_slots(), 0);
  if (seeds.empty()) {
    for (VertexId v : ports) r.valid[v] = 1;
  } else {
    for (VertexId v : seeds) {
      HSSTA_REQUIRE(g.vertex_alive(v), what);
      r.valid[v] = 1;
    }
  }
}

}  // namespace

CanonicalForm PropagationResult::at(VertexId v) const {
  HSSTA_REQUIRE(v < time.rows() && valid[v], "time of unreached vertex");
  return time.form(v);
}

PropagationResult propagate_arrivals(const TimingGraph& g,
                                     std::span<const VertexId> sources) {
  PropagationResult r;
  propagate_arrivals_into(g, sources, r);
  return r;
}

bool fold_fanin(const TimingGraph& g, VertexId v, const PropagationResult& r,
                FormView dst, FormView candidate, bool seeded,
                MaxDiagnostics* diag) {
  bool has = seeded;
  for (EdgeId e : g.vertex(v).fanin) {
    const TimingEdge& te = g.edge(e);
    if (!r.valid[te.from]) continue;
    add_into(candidate, r.time.row(te.from), te.delay.view());
    if (!has) {
      form_copy(dst, candidate);
      has = true;
    } else {
      statistical_max_into(dst, dst, candidate, diag);
    }
  }
  return has;
}

void propagate_arrivals_into(const TimingGraph& g,
                             std::span<const VertexId> sources,
                             PropagationResult& r) {
  reset_result(g, r, sources, g.inputs(), "propagation source is dead");
  CanonicalForm candidate(g.dim());
  for (VertexId v : g.topo_order())
    r.valid[v] = fold_fanin(g, v, r, r.time.row(v), candidate.view(),
                            /*seeded=*/r.valid[v] != 0, &r.diagnostics)
                     ? 1
                     : 0;
}

void propagate_required_into(const TimingGraph& g,
                             std::span<const VertexId> sinks,
                             PropagationResult& r) {
  reset_result(g, r, sinks, g.outputs(), "propagation sink is dead");
  // The backward twin of fold_fanin, on bank rows: walking the topological
  // order backwards, fold each vertex's fanout (remaining delay to the
  // seeded sinks, which carry 0) into its own row.
  CanonicalForm candidate(g.dim());
  const FormView cand = candidate.view();
  for (VertexId v : std::views::reverse(g.topo_order())) {
    bool has = r.valid[v] != 0;
    const FormView dst = r.time.row(v);
    for (EdgeId e : g.vertex(v).fanout) {
      const TimingEdge& te = g.edge(e);
      if (!r.valid[te.to]) continue;
      add_into(cand, r.time.row(te.to), te.delay.view());
      if (!has) {
        form_copy(dst, cand);
        has = true;
      } else {
        statistical_max_into(dst, dst, cand, &r.diagnostics);
      }
    }
    r.valid[v] = has ? 1 : 0;
  }
}

CanonicalForm circuit_delay(const TimingGraph& g,
                            const PropagationResult& arrivals,
                            MaxDiagnostics* diag) {
  bool has = false;
  CanonicalForm acc(g.dim());
  for (VertexId v : g.outputs()) {
    if (!arrivals.valid[v]) continue;
    if (!has) {
      form_copy(acc.view(), arrivals.time.row(v));
      has = true;
    } else {
      statistical_max_into(acc.view(), acc.view(), arrivals.time.row(v), diag);
    }
  }
  HSSTA_REQUIRE(has, "no output port was reached");
  return acc;
}

}  // namespace hssta::timing
