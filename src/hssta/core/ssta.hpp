/// \file ssta.hpp
/// The block-based SSTA engine facade: one call runs the full-circuit
/// statistical analysis (arrival propagation + output max) and, as an
/// extension beyond the paper, statistical slack against a required time.

#pragma once

#include "hssta/timing/graph.hpp"
#include "hssta/timing/propagate.hpp"

namespace hssta::core {

/// Full-circuit analysis result.
struct SstaResult {
  timing::PropagationResult arrivals;
  timing::CanonicalForm delay;  ///< statistical max over all output ports

  /// Gaussian-assumption yield at a target clock period: P{delay <= t}.
  [[nodiscard]] double timing_yield(double period) const {
    return delay.cdf(period);
  }
};

/// Run arrival propagation from all input ports and fold the output max.
[[nodiscard]] SstaResult run_ssta(const timing::TimingGraph& g);

/// Statistical slack of each vertex against a deterministic required time
/// at every output port (extension; slack = required - latest arrival
/// through that vertex, as a canonical form).
struct SlackResult {
  std::vector<timing::CanonicalForm> slack;  ///< indexed by VertexId slot
  std::vector<uint8_t> valid;
};

[[nodiscard]] SlackResult compute_slack(const timing::TimingGraph& g,
                                        double required_at_outputs);

}  // namespace hssta::core
