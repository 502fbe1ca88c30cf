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
///   * Forward, per input i: arrival A_i plus, for every edge e into a
///     vertex v, the tightness probability tp_i(e) that e carries the
///     maximal fanin arrival of v. The common remaining delay to any output
///     cancels in that comparison, so tp is independent of j.
///   * Backward, per input i: ONE batched pass over all outputs at once.
///     The vertex criticality vc_ij(v) (seeded at 1 for output j) lives in
///     a shared frontier — one row of |outputs| masses per vertex — and is
///     gathered source-side: visiting u in reverse topological order pulls
///     vc_ij(to(e)) * tp_i(e) over u's fanout edges for every j in one
///     sweep, folding c_ij(e) into cm(e) on the way. The gather order is
///     arranged to reproduce the scalar per-(i, j) scatter pass's
///     floating-point accumulation exactly (see BackwardPlan in the .cpp;
///     the scatter pass survives as the test oracle in tests/oracles.hpp),
///     so batching is a pure speedup: one traversal instead of |outputs|.
///
/// By construction the criticalities of any input-output cut sum to 1
/// (leave-one-out tightness probabilities are renormalized per vertex), a
/// chain edge gets exactly 1, and a dominated branch tends to 0.
///
/// Cost: one canonical propagation + tp pass per input, one batched scalar
/// backward pass per input covering all outputs — same #inputs * #outputs
/// work as the paper reports, but traversal and frontier state amortized
/// across outputs, with the heavy canonical work amortized per input.

#pragma once

#include <cstddef>
#include <vector>

#include "hssta/core/io_delays.hpp"
#include "hssta/timing/graph.hpp"

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

/// Compute cm for every live edge of `g`. The per-input forward propagation
/// + tightness passes (and their backward scalar passes per output) fan out
/// across `ex`; per-worker cm accumulators merge by max afterwards, so the
/// result is bit-identical at every thread count.
[[nodiscard]] CriticalityResult compute_criticality(
    const timing::TimingGraph& g, exec::Executor& ex,
    const CriticalityOptions& opts = {});

/// Serial convenience overload (runs on a call-local SerialExecutor).
[[nodiscard]] CriticalityResult compute_criticality(
    const timing::TimingGraph& g, const CriticalityOptions& opts = {});

}  // namespace hssta::core
