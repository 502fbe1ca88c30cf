/// \file propagate.hpp
/// Block-based arrival-time propagation (paper Section II): a single
/// topological sweep folding statistical sum along edges and statistical
/// max at multi-fanin vertices. The backward variant walks the same order
/// backwards and computes the maximum remaining delay from every vertex to
/// a set of sinks — the "required time" ingredient of the criticality
/// computation (Section IV.B).

#pragma once

#include <span>
#include <vector>

#include "hssta/timing/graph.hpp"
#include "hssta/timing/statops.hpp"

namespace hssta::timing {

/// Per-vertex canonical times as a FormBank — one contiguous
/// [num_vertex_slots x (dim+2)] row-major matrix, row v holding vertex v's
/// form — so sweeps walk memory linearly and fold rows in place with the
/// span kernels of statops.hpp (no allocation per folded edge). `valid[v]`
/// is false for vertices that no source reaches (forward) or that cannot
/// reach the sink (backward); the row of an invalid vertex is a zero form.
struct PropagationResult {
  FormBank time;  ///< rows indexed by VertexId slot
  std::vector<uint8_t> valid;
  MaxDiagnostics diagnostics;

  [[nodiscard]] bool is_valid(VertexId v) const { return valid[v] != 0; }
  /// Raw row view of vertex v's time (no validity check; hot-path access).
  [[nodiscard]] ConstFormView view(VertexId v) const { return time.row(v); }
  /// Vertex v's time materialized as a boundary CanonicalForm; throws when
  /// v is unreached.
  [[nodiscard]] CanonicalForm at(VertexId v) const;
};

/// Forward arrival propagation from `sources` (each injected at arrival 0).
/// An empty span means "all input ports" — the ordinary full-circuit case.
[[nodiscard]] PropagationResult propagate_arrivals(
    const TimingGraph& g, std::span<const VertexId> sources = {});

/// Workspace-reuse variant: overwrites `r` in place, recycling its vertex
/// and coefficient buffers. The per-input loops of the compute layer
/// (all-pairs IO delays, criticality) keep one PropagationResult per worker
/// thread so repeated propagations allocate nothing after warm-up. Results
/// are identical to propagate_arrivals.
void propagate_arrivals_into(const TimingGraph& g,
                             std::span<const VertexId> sources,
                             PropagationResult& r);

/// The fold of one vertex's arrival, shared by propagate_arrivals_into and
/// the incremental cone sweep (incr::DesignState) so full and incremental
/// propagation run one piece of arithmetic: for each fanin edge e of `v`
/// whose source r.valid marks reached, in fanin-list order, candidate =
/// time[from(e)] + delay(e); the first candidate is copied into `dst`
/// (unless `seeded`: dst already holds an arrival, a source's 0) and every
/// later one max-folds into it. `dst` may be row v of r.time itself;
/// `candidate` is caller-owned scratch. Returns whether dst holds an
/// arrival afterwards (seeded, or some fanin was reached).
bool fold_fanin(const TimingGraph& g, VertexId v, const PropagationResult& r,
                FormView dst, FormView candidate, bool seeded,
                MaxDiagnostics* diag);

/// Backward "required time" ingredient: time[v] = statistical max delay
/// from v to any of `sinks` over all live paths (an empty span means "all
/// output ports"); time[sink] = 0, valid[v] false when v reaches no sink.
/// This is the remaining-delay pass of compute_slack and of the per-sink
/// criticality machinery.
void propagate_required_into(const TimingGraph& g,
                             std::span<const VertexId> sinks,
                             PropagationResult& r);

/// Statistical max of the arrival times over all output ports (the module /
/// design delay distribution). Throws if no output is reached.
[[nodiscard]] CanonicalForm circuit_delay(const TimingGraph& g,
                                          const PropagationResult& arrivals,
                                          MaxDiagnostics* diag = nullptr);

}  // namespace hssta::timing
