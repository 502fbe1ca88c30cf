// Reference engines of the differential tests; see oracles.hpp.

#include "oracles.hpp"

#include <algorithm>
#include <cmath>

#include "hssta/stats/normal.hpp"
#include "hssta/timing/propagate.hpp"
#include "hssta/timing/sta.hpp"
#include "hssta/util/error.hpp"

namespace hssta::timing {

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
  const double second = tp * (va + a0 * a0) + (1.0 - tp) * (vb + b0 * b0) +
                        (a0 + b0) * theta * pdf;
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

// --- allocating tightness split --------------------------------------------

std::vector<double> tightness_split(std::span<const CanonicalForm> xs,
                                    MaxDiagnostics* diag) {
  HSSTA_REQUIRE(!xs.empty(), "tightness split of an empty set");
  const size_t k = xs.size();
  if (k == 1) return {1.0};
  if (k == 2) {
    const double t = tightness_probability(xs[0], xs[1]);
    return {t, 1.0 - t};
  }
  // Leave-one-out maxima via prefix/suffix folds.
  std::vector<CanonicalForm> prefix(xs.begin(), xs.end());
  std::vector<CanonicalForm> suffix(xs.begin(), xs.end());
  for (size_t t = 1; t < k; ++t)
    prefix[t] = statistical_max(prefix[t - 1], xs[t], diag);
  for (size_t t = k - 1; t-- > 0;)
    suffix[t] = statistical_max(suffix[t + 1], xs[t], diag);
  std::vector<double> tp(k, 0.0);
  double sum = 0.0;
  for (size_t t = 0; t < k; ++t) {
    double p;
    if (t == 0) {
      p = tightness_probability(xs[0], suffix[1]);
    } else if (t + 1 == k) {
      p = tightness_probability(xs[k - 1], prefix[k - 2]);
    } else {
      const CanonicalForm others =
          statistical_max(prefix[t - 1], suffix[t + 1], diag);
      p = tightness_probability(xs[t], others);
    }
    tp[t] = p;
    sum += p;
  }
  if (sum > 0.0)
    for (double& p : tp) p /= sum;
  else
    for (double& p : tp) p = 1.0 / static_cast<double>(k);
  return tp;
}

}  // namespace hssta::timing

namespace hssta::core {

using timing::EdgeId;
using timing::PropagationResult;
using timing::TimingGraph;
using timing::VertexId;

void fanin_tightness_into(const TimingGraph& g,
                          const PropagationResult& arrival,
                          timing::MaxDiagnostics* diag,
                          std::vector<double>& tp) {
  tp.assign(g.num_edge_slots(), 0.0);
  timing::FormBank cand;
  timing::FormBank split_scratch;
  std::vector<EdgeId> cand_edge;
  std::vector<double> split;
  for (VertexId v : g.topo_order()) {
    const auto& fanin = g.vertex(v).fanin;
    if (fanin.empty()) continue;
    cand_edge.clear();
    if (cand.rows() < fanin.size() || cand.dim() != g.dim())
      cand.reset(fanin.size(), g.dim());
    size_t n = 0;
    for (EdgeId e : fanin) {
      const timing::TimingEdge& te = g.edge(e);
      if (!arrival.valid[te.from]) continue;
      timing::add_into(cand.row(n), arrival.time.row(te.from), te.delay.view());
      cand_edge.push_back(e);
      ++n;
    }
    if (n == 0) continue;
    timing::tightness_split_into(cand, n, split, split_scratch, diag);
    for (size_t t = 0; t < n; ++t) tp[cand_edge[t]] = split[t];
  }
}

namespace {

/// Scalar backward pass for one (input, output) pair — the legacy scatter
/// reference: distribute vertex criticality over fanin edges by tp and fold
/// the result into `combine(e, c_ij(e))`. Kept verbatim as the oracle the
/// batched gather pass is pinned against.
template <typename Combine>
void backward_pass(const TimingGraph& g,
                   const std::vector<VertexId>& reverse_order,
                   const PropagationResult& arrival, VertexId output,
                   double prune_epsilon, std::vector<double>& vc,
                   const std::vector<double>& tp, Combine&& combine) {
  if (!arrival.valid[output]) return;
  vc.assign(g.num_vertex_slots(), 0.0);
  vc[output] = 1.0;
  for (VertexId v : reverse_order) {
    const double mass = vc[v];
    if (mass <= prune_epsilon) continue;
    for (EdgeId e : g.vertex(v).fanin) {
      const double c = mass * tp[e];
      if (c <= 0.0) continue;
      combine(e, c);
      vc[g.edge(e).from] += c;
    }
  }
}

}  // namespace

std::vector<double> pair_criticalities(const TimingGraph& g, size_t input,
                                       size_t output) {
  HSSTA_REQUIRE(input < g.inputs().size() && output < g.outputs().size(),
                "IO index out of range");
  const std::vector<VertexId>& order = g.topo_order();
  const std::vector<VertexId> reverse_order(order.rbegin(), order.rend());
  PropagationResult arrival;
  const VertexId sources[] = {g.inputs()[input]};
  timing::propagate_arrivals_into(g, sources, arrival);
  std::vector<double> tp;
  fanin_tightness_into(g, arrival, nullptr, tp);
  std::vector<double> c(g.num_edge_slots(), 0.0);
  std::vector<double> vc;
  backward_pass(g, reverse_order, arrival, g.outputs()[output], 0.0, vc, tp,
                [&](EdgeId e, double value) { c[e] += value; });
  return c;
}

double edge_pair_criticality(const TimingGraph& g, EdgeId e, size_t input,
                             size_t output) {
  HSSTA_REQUIRE(g.edge_alive(e), "criticality of a dead edge");
  return pair_criticalities(g, input, output)[e];
}

std::vector<double> scatter_max_criticality(const TimingGraph& g) {
  const std::vector<VertexId>& order = g.topo_order();
  const std::vector<VertexId> reverse_order(order.rbegin(), order.rend());
  std::vector<double> cm(g.num_edge_slots(), 0.0);
  PropagationResult arrival;
  std::vector<double> tp;
  std::vector<double> vc;
  for (const VertexId input : g.inputs()) {
    const VertexId sources[] = {input};
    timing::propagate_arrivals_into(g, sources, arrival);
    fanin_tightness_into(g, arrival, nullptr, tp);
    for (const VertexId output : g.outputs())
      backward_pass(g, reverse_order, arrival, output, 0.0, vc, tp,
                    [&](EdgeId e, double c) { cm[e] = std::max(cm[e], c); });
  }
  for (double& c : cm) c = std::min(c, 1.0);
  return cm;
}

}  // namespace hssta::core

namespace hssta::mc {

namespace {

/// Per-slot scratch for canonical sampling.
struct CanonicalScratch {
  std::vector<double> y;
  std::vector<double> edge_delay;
};

stats::EmpiricalDistribution sample_with_base(const timing::TimingGraph& g,
                                              size_t samples, uint64_t base,
                                              exec::Executor& ex) {
  HSSTA_REQUIRE(samples > 0, "need at least one sample");
  std::vector<double> values(samples);
  std::vector<CanonicalScratch> scratch(ex.concurrency());
  ex.parallel_for(samples, [&](size_t s, size_t slot) {
    CanonicalScratch& sc = scratch[slot];
    stats::Rng rng = stats::Rng::from_counter(base, s);
    sc.y.resize(g.dim());
    for (double& v : sc.y) v = rng.normal();
    sc.edge_delay.assign(g.num_edge_slots(), 0.0);
    for (timing::EdgeId e = 0; e < g.num_edge_slots(); ++e) {
      if (!g.edge_alive(e)) continue;
      sc.edge_delay[e] = g.edge(e).delay.evaluate(sc.y, rng.normal());
    }
    values[s] =
        timing::longest_path(g, sc.edge_delay).max_over_outputs(g);
  });
  return stats::EmpiricalDistribution(std::move(values));
}

}  // namespace

stats::EmpiricalDistribution sample_canonical_delay(
    const timing::TimingGraph& g, size_t samples, stats::Rng& rng) {
  // Validate before drawing the stream base so a failed call leaves the
  // caller's generator untouched.
  HSSTA_REQUIRE(samples > 0, "need at least one sample");
  return sample_with_base(g, samples, rng.next_u64(), exec::serial());
}

stats::EmpiricalDistribution sample_canonical_delay(
    const timing::TimingGraph& g, size_t samples, uint64_t seed,
    exec::Executor& ex) {
  stats::Rng seeder(seed);
  return sample_with_base(g, samples, seeder.next_u64(), ex);
}

}  // namespace hssta::mc
