#include "hssta/core/ssta.hpp"

#include <cmath>

#include "hssta/timing/statops.hpp"
#include "hssta/util/error.hpp"

namespace hssta::core {

using timing::CanonicalForm;
using timing::PropagationResult;
using timing::TimingGraph;
using timing::VertexId;

SstaResult run_ssta(const TimingGraph& g) {
  SstaResult r{timing::propagate_arrivals(g), CanonicalForm(g.dim())};
  r.delay = timing::circuit_delay(g, r.arrivals, &r.arrivals.diagnostics);
  return r;
}

SlackResult compute_slack(const TimingGraph& g, double required_at_outputs) {
  const PropagationResult arrivals = timing::propagate_arrivals(g);
  // Backward sweep from all output ports at remaining time 0: remaining[v]
  // is the statistical max delay from v to any output.
  PropagationResult remaining;
  timing::propagate_required_into(g, {}, remaining);

  // slack(v) = required - (arrival(v) + remaining(v)); the variability
  // coefficients flip sign, the private random magnitude is unchanged.
  // Assembled straight from the two bank rows — the through-path sum is
  // never materialized.
  SlackResult out;
  out.slack.assign(g.num_vertex_slots(), CanonicalForm(g.dim()));
  out.valid.assign(g.num_vertex_slots(), 0);
  for (VertexId v = 0; v < g.num_vertex_slots(); ++v) {
    if (!g.vertex_alive(v) || !arrivals.valid[v] || !remaining.valid[v])
      continue;
    const timing::ConstFormView at = arrivals.time.row(v);
    const timing::ConstFormView rt = remaining.time.row(v);
    CanonicalForm& s = out.slack[v];
    s.set_nominal(required_at_outputs - (*at.nominal + *rt.nominal));
    const std::span<double> sc = s.corr();
    for (size_t k = 0; k < g.dim(); ++k) sc[k] = -(at.corr[k] + rt.corr[k]);
    s.set_random(
        std::sqrt(*at.random * *at.random + *rt.random * *rt.random));
    out.valid[v] = 1;
  }
  return out;
}

}  // namespace hssta::core
