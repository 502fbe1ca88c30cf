/// \file sta.hpp
/// Deterministic static timing analysis over the same timing graph:
///  * scalar longest path for a concrete per-edge delay assignment (the
///    inner loop of every Monte Carlo engine);
///  * nominal and sigma-corner analysis (each edge at a0 + k * sigma_edge),
///    the classical corner methodology whose pessimism motivates SSTA
///    (paper Section I).

#pragma once

#include <span>
#include <vector>

#include "hssta/timing/graph.hpp"

namespace hssta::timing {

/// Scalar arrival times from a longest-path sweep.
struct ScalarArrivals {
  std::vector<double> time;   ///< indexed by VertexId slot
  std::vector<uint8_t> valid;

  /// Maximum over the graph's output ports; throws if none reached.
  [[nodiscard]] double max_over_outputs(const TimingGraph& g) const;
};

/// Longest path with explicit per-edge delays (indexed by EdgeId slot).
/// Empty `sources` means all input ports.
[[nodiscard]] ScalarArrivals longest_path(
    const TimingGraph& g, std::span<const double> edge_delays,
    std::span<const VertexId> sources = {});

/// The deterministic required-time pass: required[v] = the latest time v
/// may switch such that every output still meets `required_at_outputs`,
/// i.e. the min over fanout of required[to] - delay (outputs themselves
/// clamp at required_at_outputs). valid[v] is false for vertices that reach
/// no output. Scalar slack is required - arrival; the vertices with slack 0
/// under nominal delays form the critical path(s).
[[nodiscard]] ScalarArrivals required_times(
    const TimingGraph& g, std::span<const double> edge_delays,
    double required_at_outputs);

/// Per-edge delays at nominal + k * sigma (k = 0: nominal STA; k = 3: the
/// classical worst corner, deliberately correlation-blind).
[[nodiscard]] std::vector<double> corner_edge_delays(const TimingGraph& g,
                                                     double k_sigma);

/// Circuit delay at a sigma corner.
[[nodiscard]] double corner_delay(const TimingGraph& g, double k_sigma);

}  // namespace hssta::timing
