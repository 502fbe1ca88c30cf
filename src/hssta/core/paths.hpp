/// \file paths.hpp
/// Statistical critical-path reporting (extension beyond the paper; the
/// standard `report_timing` view of an SSTA result).
///
/// A path's criticality is the probability that it is *the* longest path of
/// the circuit. Under the same conditional-independence approximation as
/// the criticality engine, it factorizes into the output tightness (the
/// probability its endpoint is the critical output) times the arrival
/// tightness of each edge along the path (core::arrival_tightness, the
/// criticality engine's fused forward sweep). Paths are enumerated in
/// descending estimated criticality with a best-first backward walk — the
/// product of probabilities can only shrink along a partial path, so a
/// priority queue yields the top-k order exactly (w.r.t. the estimates).

#pragma once

#include <string>
#include <vector>

#include "hssta/timing/graph.hpp"
#include "hssta/timing/propagate.hpp"

namespace hssta::core {

struct CriticalPath {
  std::vector<timing::VertexId> vertices;  ///< input ... output
  std::vector<timing::EdgeId> edges;       ///< vertices.size() - 1 entries
  timing::CanonicalForm delay;             ///< statistical path delay (sum)
  double criticality = 0.0;  ///< estimated P{path is the critical path}

  /// "in -> g17 -> g42 -> out" style rendering.
  [[nodiscard]] std::string format(const timing::TimingGraph& g) const;
};

/// Enumerate the k most critical paths of the full circuit (all inputs
/// launched at 0). Paths are returned in descending estimated criticality;
/// their criticalities sum to at most ~1.
[[nodiscard]] std::vector<CriticalPath> report_critical_paths(
    const timing::TimingGraph& g, size_t k);

}  // namespace hssta::core
