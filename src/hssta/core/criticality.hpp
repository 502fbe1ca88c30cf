/// \file criticality.hpp
/// Edge criticality (paper Section IV.B, Definitions 1-2): for an edge e
/// and IO pair (i, j), c_ij(e) is the probability that e lies on the
/// statistically longest i->j path; cm(e) = max over all pairs is the
/// pruning key of the gray-box model extraction.
///
/// Implementation follows the tightness-probability factorization of the
/// paper's reference [18] (Xiong et al., DATE'08) rather than a literal
/// Prob{d_e >= M_ij} evaluation: the latter requires the covariance between
/// a path delay and the IO maximum, which the canonical form cannot
/// represent once path randoms have been aggregated (a sole path would come
/// out at criticality 0.5 instead of 1). Instead:
///
///   * Forward, per input i: ONE fused topological sweep computes the
///     arrival A_i and, for every edge e into a vertex v, the tightness
///     probability tp_i(e) that e carries the maximal fanin arrival of v
///     (the common remaining delay to any output cancels in that
///     comparison, so tp is independent of j). The arrival fold is the
///     tightness split's prefix: a 2-fanin vertex takes tp from the very
///     max that forms its arrival, a wider one reads its arrival from the
///     split's last prefix fold. The sweep records the input's cone (the
///     reached vertices, in topological order) and touches nothing else.
///   * Backward, per input i: ONE batched pass over all outputs at once.
///     The vertex criticality vc_ij(v) (seeded at 1 for output j) lives in
///     a shared frontier — one row of |outputs| masses per vertex — and is
///     gathered source-side: visiting u of the cone in reverse topological
///     order pulls vc_ij(to(e)) * tp_i(e) over u's fanout edges, for every
///     output j the sink can reach, folding c_ij(e) into cm(e) on the way.
///     Columns a sink cannot reach hold exactly 0, so skipping them changes
///     no sum. The gather order is arranged to reproduce the scalar
///     per-(i, j) scatter pass's floating-point accumulation exactly (see
///     BackwardPlan in the .cpp; the scatter pass survives as the test
///     oracle in tests/oracles.hpp), so batching is a pure speedup: one
///     traversal instead of |outputs|.
///
/// Every floating-point fold keeps the order of the two-pass engine it
/// replaced (forward propagation, then a separate tightness pass; the
/// latter survives as a test oracle in tests/oracles.hpp), so arrivals,
/// tightness, criticalities and IO delays are bit-identical to it. Only the
/// max-operation counters differ: a wide vertex's prefix folds used to be
/// counted by both passes and are now counted once.
///
/// By construction the criticalities of any input-output cut sum to 1
/// (leave-one-out tightness probabilities are renormalized per vertex), a
/// chain edge gets exactly 1, and a dominated branch tends to 0.
///
/// Cost: one fused canonical sweep over the cone per input, one batched
/// scalar backward pass per input covering all outputs — same #inputs *
/// #outputs work as the paper reports, but traversal and frontier state
/// amortized across outputs, with the heavy canonical work amortized per
/// input.

#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "hssta/core/io_delays.hpp"
#include "hssta/exec/executor.hpp"
#include "hssta/timing/graph.hpp"
#include "hssta/timing/propagate.hpp"

namespace hssta::core {

struct CriticalityOptions {
  /// Backward vertex-criticality mass below this threshold is not
  /// propagated further (it can only shrink). 0 disables the cutoff.
  double prune_epsilon = 1e-12;
  /// Unused: criticality has one schedule, the per-input fan-out. The field
  /// stays only because perfbench/src/characterize.cpp assigns
  /// flow::Config::level_parallel to it; the next benchmark change deletes
  /// that line, this field and the Config one.
  timing::LevelParallel level_parallel = timing::LevelParallel::kAuto;
};

struct CriticalityResult {
  /// cm per edge slot (dead edges report 0).
  std::vector<double> max_criticality;
  /// All-pairs IO delays, a by-product of the per-input forward passes.
  DelayMatrix io_delays;
  timing::MaxDiagnostics diagnostics;
};

/// Compute cm for every live edge of `g`. The per-input fused sweeps (and
/// their batched backward passes over all outputs) fan out across `ex`;
/// per-slot cm accumulators merge by max afterwards, so the result is
/// bit-identical at every thread count.
[[nodiscard]] CriticalityResult compute_criticality(
    const timing::TimingGraph& g, exec::Executor& ex = exec::serial(),
    const CriticalityOptions& opts = {});

/// The fused forward sweep of the criticality engine, shared with path
/// reporting: arrival times from a set of sources plus the arrival
/// tightness of every edge, tp[e] = P{e carries the maximal fanin arrival
/// of its sink}, renormalized per vertex so a vertex's tp values partition
/// exactly. Reusable: arrival_tightness_into recycles every buffer, so a
/// warm instance allocates nothing.
struct ArrivalTightness {
  /// Arrivals and validity flags; `diagnostics` counts this sweep's max
  /// operations. A fresh instance holds zero forms in unreached rows; a
  /// reused one is not zero-filled per sweep, so unreached rows (valid 0)
  /// keep whatever an earlier sweep left there.
  timing::PropagationResult arrivals;
  /// Per edge slot. Every fanin edge of a reached vertex has its tp (0 when
  /// its source is unreached); edges into unreached vertices hold 0 on a
  /// fresh instance and are stale on a reused one.
  std::vector<double> tp;
  /// The reached vertices (sources included) in topological order.
  std::vector<timing::VertexId> cone;

  /// Sweep scratch: a vertex's fanin candidates and their edges, and the
  /// tightness split's folds and result. No meaning between calls.
  struct Scratch {
    timing::FormBank cand;
    std::vector<timing::EdgeId> cand_edge;
    timing::FormBank folds;
    std::vector<double> split;
  } scratch;
};

/// One topological sweep from `sources` (an empty span means all input
/// ports, each launched at 0) into `out`. Arrivals are bit-identical to
/// timing::propagate_arrivals_into on the same sources, and tp to a
/// separate tightness_split_into pass over each vertex's candidates.
/// Sources must be live and fanin-free (input ports always are: add_edge
/// rejects edges into inputs); anything else throws.
void arrival_tightness_into(const timing::TimingGraph& g,
                            std::span<const timing::VertexId> sources,
                            ArrivalTightness& out);

/// Fresh-instance convenience over arrival_tightness_into.
[[nodiscard]] ArrivalTightness arrival_tightness(
    const timing::TimingGraph& g,
    std::span<const timing::VertexId> sources = {});

}  // namespace hssta::core
