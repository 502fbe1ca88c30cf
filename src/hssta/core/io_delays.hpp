/// \file io_delays.hpp
/// All-pairs input-to-output delay matrix (paper Section III, eq. 12, via
/// the per-input propagation scheme of Sapatnekar ISCAS'96): entry (i, j)
/// is the canonical maximum delay M_ij from input port i to output port j.
/// The matrix is both the timing model's contract (a model must preserve
/// it) and the reference the criticality computation compares against.

#pragma once

#include <vector>

#include "hssta/exec/executor.hpp"
#include "hssta/timing/graph.hpp"
#include "hssta/timing/propagate.hpp"

namespace hssta::core {

/// Dense inputs x outputs matrix of canonical delays with validity flags
/// (an entry is invalid when no path connects the pair).
class DelayMatrix {
 public:
  DelayMatrix() = default;
  DelayMatrix(size_t num_inputs, size_t num_outputs, size_t dim);

  [[nodiscard]] size_t num_inputs() const { return inputs_; }
  [[nodiscard]] size_t num_outputs() const { return outputs_; }

  [[nodiscard]] bool is_valid(size_t i, size_t j) const;
  [[nodiscard]] const timing::CanonicalForm& at(size_t i, size_t j) const;

  void set(size_t i, size_t j, timing::CanonicalForm delay);

  /// Number of connected (valid) pairs.
  [[nodiscard]] size_t num_valid() const;

  /// Largest |mean_a - mean_b| / mean_b over pairs valid in both matrices
  /// with mean_b >= floor; used for model-accuracy reporting (merr).
  /// Throws if the shapes differ or the validity patterns disagree.
  [[nodiscard]] double max_mean_error(const DelayMatrix& reference,
                                      double floor = 1e-6) const;

 private:
  [[nodiscard]] size_t idx(size_t i, size_t j) const;

  size_t inputs_ = 0;
  size_t outputs_ = 0;
  std::vector<timing::CanonicalForm> delays_;
  std::vector<uint8_t> valid_;
};

/// Compute the delay matrix of a timing graph: one forward propagation per
/// input port (rows/columns follow g.inputs()/g.outputs() order), fanned
/// out across `ex` one row per work item with per-slot propagation
/// scratch. Results are bit-identical at every thread count.
[[nodiscard]] DelayMatrix all_pairs_io_delays(
    const timing::TimingGraph& g, exec::Executor& ex = exec::serial(),
    timing::MaxDiagnostics* diag = nullptr);

}  // namespace hssta::core
