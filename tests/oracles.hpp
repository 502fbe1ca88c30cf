// Reference engines the differential tests pin the library against. None of
// this is library API: each is the retired (or deliberately naive)
// implementation of something the library does faster, kept verbatim so a
// kernel, storage-layout or schedule regression cannot land silently.
//
//  * timing::legacy_propagate_arrivals / legacy_propagate_required — the
//    pre-FormBank per-vertex engine, with its own copy of the pairwise max
//    (the FormBank sweeps must match it bit for bit);
//  * timing::tightness_split — the allocating span-based split
//    (tightness_split_into must match it bit for bit);
//  * core::fanin_tightness_into — the two-pass engine's separate
//    tightness pass over a finished arrival propagation (the fused sweep,
//    core::arrival_tightness_into, must match it bit for bit);
//  * core::pair_criticalities / edge_pair_criticality — the per-(i, j)
//    scalar scatter pass (the batched gather pass must match it bit for
//    bit);
//  * mc::sample_canonical_delay — Monte Carlo over the canonical model,
//    which isolates the Clark-max approximation of SSTA.

#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "hssta/exec/executor.hpp"
#include "hssta/stats/empirical.hpp"
#include "hssta/stats/rng.hpp"
#include "hssta/timing/canonical.hpp"
#include "hssta/timing/graph.hpp"
#include "hssta/timing/propagate.hpp"
#include "hssta/timing/statops.hpp"

namespace hssta::timing {

/// --- legacy per-vertex reference engine ----------------------------------
/// The pre-FormBank storage and fold: one heap CanonicalForm per vertex, a
/// fresh coefficient vector allocated by every pairwise max. Serial only.
/// This is exactly the allocation-bound code path the FormBank rewrite
/// retired.
struct LegacyPropagation {
  std::vector<CanonicalForm> time;  ///< indexed by VertexId slot
  std::vector<uint8_t> valid;
  MaxDiagnostics diagnostics;
};

[[nodiscard]] LegacyPropagation legacy_propagate_arrivals(
    const TimingGraph& g, std::span<const VertexId> sources = {});

[[nodiscard]] LegacyPropagation legacy_propagate_required(
    const TimingGraph& g, std::span<const VertexId> sinks = {});

/// Probability that each entry is the maximum of the set: leave-one-out
/// tightness probabilities (prefix/suffix Clark folds), renormalized to
/// sum to exactly 1. Throws on an empty span.
[[nodiscard]] std::vector<double> tightness_split(
    std::span<const CanonicalForm> xs, MaxDiagnostics* diag = nullptr);

}  // namespace hssta::timing

namespace hssta::core {

/// Fanin tightness probabilities for one finished arrival propagation, the
/// second pass of the two-pass engine: tp[e] = Prob{edge e carries the
/// maximal fanin arrival of its sink}, renormalized per vertex. Each
/// vertex's candidates are rebuilt from `arrival` and split with
/// tightness_split_into; `tp` is resized to the edge slots and entries of
/// edges without a candidate are 0. Max operations (the split's prefix and
/// suffix folds) count into `diag`.
void fanin_tightness_into(const timing::TimingGraph& g,
                          const timing::PropagationResult& arrival,
                          timing::MaxDiagnostics* diag,
                          std::vector<double>& tp);

/// All per-edge criticalities for one IO pair (one forward + one backward
/// pass). Entries of dead edges are 0. The per-(i, j) scalar scatter pass
/// with no pruning cutoff, over the two-pass engine: arrivals from
/// timing::propagate_arrivals_into, tightness from fanin_tightness_into.
[[nodiscard]] std::vector<double> pair_criticalities(
    const timing::TimingGraph& g, size_t input, size_t output);

/// Criticality of one edge for one IO pair (one pair_criticalities run).
[[nodiscard]] double edge_pair_criticality(const timing::TimingGraph& g,
                                           timing::EdgeId e, size_t input,
                                           size_t output);

/// cm(e) = max over all (i, j) pairs of the same scatter pass (no pruning
/// cutoff), clamped at 1 like compute_criticality, with one two-pass
/// forward per input shared by that input's outputs — the pair_criticalities
/// reference at a cost that reaches the large ISCAS85 profiles.
[[nodiscard]] std::vector<double> scatter_max_criticality(
    const timing::TimingGraph& g);

}  // namespace hssta::core

namespace hssta::mc {

/// Monte Carlo over a canonical timing graph: samples the correlated
/// variables and every edge's private random, evaluates scalar edge delays
/// and runs deterministic longest path — the sampled model is exactly the
/// canonical one the SSTA engine sees. Circuit-delay samples (max over
/// output ports); counter-based like FlatCircuit::sample_delay, so sample s
/// depends only on (stream base, s). The stream base is one draw from
/// `rng`.
[[nodiscard]] stats::EmpiricalDistribution sample_canonical_delay(
    const timing::TimingGraph& g, size_t samples, stats::Rng& rng);

/// Same samples, fanned out across `ex`; matches the Rng& overload called
/// with Rng(seed) bit-for-bit.
[[nodiscard]] stats::EmpiricalDistribution sample_canonical_delay(
    const timing::TimingGraph& g, size_t samples, uint64_t seed,
    exec::Executor& ex);

}  // namespace hssta::mc
