#include "hssta/timing/propagate.hpp"

#include <algorithm>
#include <cmath>

#include "hssta/stats/normal.hpp"
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
  std::vector<VertexId> order = g.topo_order();
  std::reverse(order.begin(), order.end());
  // The backward twin of fold_fanin, on bank rows: fold each vertex's
  // fanout (remaining delay to the seeded sinks, which carry 0) into its
  // own row.
  CanonicalForm candidate(g.dim());
  const FormView cand = candidate.view();
  for (VertexId v : order) {
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

PropagationResult propagate_to_sink(const TimingGraph& g, VertexId sink) {
  const VertexId sinks[] = {sink};
  PropagationResult r;
  propagate_required_into(g, sinks, r);
  return r;
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

// --- legacy per-vertex reference engine ------------------------------------

namespace {

/// The pre-FormBank pairwise max, byte-for-byte: allocates a fresh
/// CanonicalForm per call and goes through the owning-type accessors. This
/// deliberately does NOT delegate to statistical_max_into — it preserves
/// the retired implementation so the differential harness pins the flat
/// kernel against the original arithmetic, not against itself.
CanonicalForm legacy_statistical_max(const CanonicalForm& a,
                                     const CanonicalForm& b,
                                     MaxDiagnostics* diag) {
  constexpr double kDegenerateFrac = 1e-14;
  HSSTA_REQUIRE(a.dim() == b.dim(), "max across different spaces");
  if (diag) ++diag->ops;

  const double va = a.variance();
  const double vb = b.variance();
  const double cov = a.covariance(b);
  const double theta2 = va + vb - 2.0 * cov;
  const double scale = std::max(va, vb);
  const bool degenerate = theta2 <= kDegenerateFrac * scale || theta2 <= 0.0;
  if (degenerate) {
    if (diag) ++diag->degenerate_theta;
    return a.nominal() >= b.nominal() ? a : b;
  }
  const double theta = std::sqrt(theta2);

  const double a0 = a.nominal();
  const double b0 = b.nominal();
  const double alpha = (a0 - b0) / theta;
  const double tp = stats::normal_cdf(alpha);
  const double pdf = stats::normal_pdf(alpha);

  const double mu = tp * a0 + (1.0 - tp) * b0 + theta * pdf;
  const double second =
      tp * (va + a0 * a0) + (1.0 - tp) * (vb + b0 * b0) + (a0 + b0) * theta * pdf;
  const double var = second - mu * mu;

  CanonicalForm out(a.dim());
  out.set_nominal(mu);
  const std::span<const double> ca = a.corr();
  const std::span<const double> cb = b.corr();
  const std::span<double> co = out.corr();
  double corr_var = 0.0;
  for (size_t i = 0; i < co.size(); ++i) {
    co[i] = tp * ca[i] + (1.0 - tp) * cb[i];
    corr_var += co[i] * co[i];
  }
  const double resid = var - corr_var;
  if (resid > 0.0) {
    out.set_random(std::sqrt(resid));
  } else {
    out.set_random(0.0);
    if (diag) ++diag->variance_clamped;
  }
  return out;
}

void legacy_reset(const TimingGraph& g, LegacyPropagation& r,
                  std::span<const VertexId> seeds,
                  const std::vector<VertexId>& ports, const char* what) {
  r.diagnostics = MaxDiagnostics{};
  r.time.assign(g.num_vertex_slots(), CanonicalForm(g.dim()));
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

LegacyPropagation legacy_propagate_arrivals(const TimingGraph& g,
                                            std::span<const VertexId> sources) {
  LegacyPropagation r;
  legacy_reset(g, r, sources, g.inputs(), "propagation source is dead");
  CanonicalForm candidate(g.dim());
  for (VertexId v : g.topo_order()) {
    bool has = r.valid[v] != 0;
    for (EdgeId e : g.vertex(v).fanin) {
      const TimingEdge& te = g.edge(e);
      if (!r.valid[te.from]) continue;
      candidate = r.time[te.from];
      candidate += te.delay;
      if (!has) {
        r.time[v] = candidate;
        has = true;
      } else {
        r.time[v] =
            legacy_statistical_max(r.time[v], candidate, &r.diagnostics);
      }
    }
    r.valid[v] = has ? 1 : 0;
  }
  return r;
}

LegacyPropagation legacy_propagate_required(const TimingGraph& g,
                                            std::span<const VertexId> sinks) {
  LegacyPropagation r;
  legacy_reset(g, r, sinks, g.outputs(), "propagation sink is dead");
  std::vector<VertexId> order = g.topo_order();
  std::reverse(order.begin(), order.end());
  CanonicalForm candidate(g.dim());
  for (VertexId v : order) {
    bool has = r.valid[v] != 0;
    for (EdgeId e : g.vertex(v).fanout) {
      const TimingEdge& te = g.edge(e);
      if (!r.valid[te.to]) continue;
      candidate = r.time[te.to];
      candidate += te.delay;
      if (!has) {
        r.time[v] = candidate;
        has = true;
      } else {
        r.time[v] =
            legacy_statistical_max(r.time[v], candidate, &r.diagnostics);
      }
    }
    r.valid[v] = has ? 1 : 0;
  }
  return r;
}

}  // namespace hssta::timing
