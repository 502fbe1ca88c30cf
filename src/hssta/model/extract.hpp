/// \file extract.hpp
/// Gray-box statistical timing model extraction (paper Section IV, Fig. 3):
///   1. compute the maximum criticality cm of every edge;
///   2. remove edges with cm below the threshold delta;
///   3. apply serial and parallel merges (plus dangling cleanup) to a
///      fixpoint.
/// Step 2 can in rare cases disconnect an originally connected IO pair
/// (every edge of some cut fell below delta); the extractor restores the
/// max-bottleneck-criticality path for each such pair so the model's
/// connectivity contract always holds (counted in the stats).

#pragma once

#include <string>
#include <vector>

#include "hssta/core/criticality.hpp"
#include "hssta/exec/executor.hpp"
#include "hssta/model/reduce.hpp"
#include "hssta/model/timing_model.hpp"
#include "hssta/timing/builder.hpp"

namespace hssta::model {

struct ExtractOptions {
  /// The paper's delta: edges with cm below this are pruned (Section VI
  /// uses 0.05).
  double criticality_threshold = 0.05;
  /// Restore a path for IO pairs disconnected by pruning.
  bool repair_connectivity = true;
};

/// Stable 64-bit fingerprint of the extraction options:
/// criticality_threshold and repair_connectivity. The thread count is not
/// an option (results are bit-identical at any count), so cached models
/// are shared across thread counts.
[[nodiscard]] uint64_t fingerprint(const ExtractOptions& opts);

struct ExtractionStats {
  size_t original_vertices = 0;  ///< Vo (live vertices before extraction)
  size_t original_edges = 0;     ///< Eo
  size_t model_vertices = 0;     ///< Vm
  size_t model_edges = 0;        ///< Em
  size_t edges_pruned = 0;
  size_t pairs_repaired = 0;
  ReduceStats reduce;
  double seconds = 0.0;          ///< wall-clock extraction (or cache load) time
  /// cm of every originally live edge (the paper's Fig. 6 histogram data).
  std::vector<double> criticalities;
  /// True when the model came from a cache::ModelCache hit instead of a
  /// fresh extraction; original_* counts and criticalities are then unknown
  /// (zero/empty) — only the model_* counts describe the loaded graph.
  bool from_cache = false;

  [[nodiscard]] double edge_ratio() const;    ///< pe = Em / Eo
  [[nodiscard]] double vertex_ratio() const;  ///< pv = Vm / Vo
};

struct Extraction {
  TimingModel model;
  ExtractionStats stats;
};

/// Extract the timing model of a built module graph. `boundary` typically
/// comes from compute_boundary(netlist). The dominant cost — the per-input
/// criticality passes of step 1 — fans out across `ex`; pruning, repair and
/// reduction stay serial, and the result is bit-identical at every thread
/// count.
[[nodiscard]] Extraction extract_timing_model(
    const timing::BuiltGraph& built, const variation::ModuleVariation& mv,
    std::string name, BoundaryData boundary,
    exec::Executor& ex = exec::serial(), const ExtractOptions& opts = {});

}  // namespace hssta::model
