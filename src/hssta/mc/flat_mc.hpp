/// \file flat_mc.hpp
/// Physical Monte Carlo reference (the paper's comparison baseline in
/// Table I and Figs. 6-7). A FlatCircuit is a scalar-evaluable view of a
/// module or flattened design: per timing arc the nominal delay, the
/// load-dependent share, the per-parameter delay slopes and the correlation
/// grid of its cell. Each sample draws
///   * one global deviate per parameter,
///   * per-grid local deviates with the exact grid covariance (Cholesky —
///     no PCA involved, so this is an independent reference),
///   * per-arc random deviates (parameter residue and load),
/// evaluates every arc and runs deterministic longest path.

#pragma once

#include <vector>

#include "hssta/exec/executor.hpp"
#include "hssta/linalg/matrix.hpp"
#include "hssta/netlist/netlist.hpp"
#include "hssta/stats/empirical.hpp"
#include "hssta/stats/rng.hpp"
#include "hssta/timing/builder.hpp"
#include "hssta/timing/graph.hpp"
#include "hssta/variation/space.hpp"

namespace hssta::mc {

/// Per-slot sampling scratch: parameter deviates, local grid deviates and
/// per-arc scalar delays, reused across the samples one worker slot runs.
/// Cache-line aligned: a call keeps one per slot, side by side in a vector.
struct alignas(64) McEvalScratch {
  std::vector<double> global;
  linalg::Matrix local;
  std::vector<double> delays;
};

/// Per-IO-pair sample statistics (the Monte Carlo counterpart of the
/// canonical DelayMatrix; backs the paper's merr/verr columns).
struct IoStats {
  size_t num_inputs = 0;
  size_t num_outputs = 0;
  std::vector<double> mean;    ///< row-major inputs x outputs
  std::vector<double> sigma;
  std::vector<uint8_t> valid;

  [[nodiscard]] size_t idx(size_t i, size_t j) const;
  [[nodiscard]] bool is_valid(size_t i, size_t j) const;
  [[nodiscard]] double mean_at(size_t i, size_t j) const;
  [[nodiscard]] double sigma_at(size_t i, size_t j) const;
};

class FlatCircuit {
 public:
  /// Scalar view of one module: the BuiltGraph supplies structure and edge
  /// sites, the netlist supplies cell sensitivities, the ModuleVariation
  /// supplies grids and the correlation to sample from.
  [[nodiscard]] static FlatCircuit from_module(
      const timing::BuiltGraph& built, const netlist::Netlist& nl,
      const variation::ModuleVariation& mv);

  /// Number of sampled grids (module grids, or design grids for flattened
  /// designs).
  [[nodiscard]] size_t num_grids() const { return chol_.rows(); }
  [[nodiscard]] const timing::TimingGraph& structure() const {
    return structure_;
  }

  /// Circuit-delay distribution over `samples` draws. Sampling is
  /// counter-based: sample s is drawn from its own generator
  /// Rng::from_counter(base, s), where the stream base is one draw from
  /// `rng` — so sample values depend only on (base, s), never on loop
  /// order, batch size or the thread count of `ex`.
  [[nodiscard]] stats::EmpiricalDistribution sample_delay(
      size_t samples, stats::Rng& rng,
      exec::Executor& ex = exec::serial()) const;

  /// Same distribution from a seed: the stream base is one draw from
  /// Rng(seed), so this matches the Rng& overload called with Rng(seed)
  /// bit-for-bit at every thread count.
  [[nodiscard]] stats::EmpiricalDistribution sample_delay(
      size_t samples, uint64_t seed, exec::Executor& ex) const;

  /// Per-IO-pair delay statistics (one scalar longest path per input per
  /// sample — the expensive Table I reference). Counter-based like
  /// sample_delay.
  [[nodiscard]] IoStats sample_io_delays(size_t samples,
                                         stats::Rng& rng) const;

  /// --- assembly (used by the hierarchical flattener) ----------------------

  FlatCircuit(variation::ParameterSet params, linalg::Matrix grid_correlation,
              double load_sigma);
  timing::VertexId add_vertex(std::string name, bool is_input,
                              bool is_output);
  /// Arc with physical annotation; `sens` holds d0 * s_p per parameter.
  void add_arc(timing::VertexId from, timing::VertexId to, double nominal,
               double load_term, size_t grid, std::vector<double> sens);
  /// Constant-delay arc (top-level interconnect).
  void add_constant_arc(timing::VertexId from, timing::VertexId to,
                        double nominal, double load_sigma_term);

 private:
  [[nodiscard]] stats::EmpiricalDistribution sample_delay_with_base(
      size_t samples, uint64_t base, exec::Executor& ex) const;
  void draw_deviates(stats::Rng& rng, std::vector<double>& global,
                     linalg::Matrix& local) const;
  void evaluate_edges(stats::Rng& rng, McEvalScratch& sc) const;

  timing::TimingGraph structure_;
  variation::ParameterSet params_;
  linalg::Matrix chol_;   ///< Cholesky factor of the grid correlation
  double load_sigma_ = 0.0;

  // Per edge (indexed by EdgeId): physical data.
  std::vector<double> nominal_;
  std::vector<double> load_term_;  ///< drive_res * load (gets load noise)
  std::vector<size_t> grid_;
  std::vector<double> sens_;       ///< row-major edges x params, d0 * s_p
};

}  // namespace hssta::mc
