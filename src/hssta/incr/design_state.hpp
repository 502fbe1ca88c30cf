/// \file design_state.hpp
/// incr::DesignState — incremental hierarchical re-analysis.
///
/// The point of hierarchical SSTA (paper Section V) is that pre-
/// characterized module models make the top-level analysis cheap enough to
/// repeat; this engine makes *repeating* it cheap too. A DesignState holds
/// the stitched design-level timing graph together with full provenance
/// (which vertices/edges came from which ModuleInstance, and each instance
/// edge's remapped delay before sigma scaling) and the propagated arrival
/// state. The change API — replace_module, move_instance,
/// rewire_connection, set_parameter_sigma — records the minimal dirty set;
/// analyze() then recomputes only what the change can reach:
///
///  * replace_module with a geometry-compatible variant (same die, grid
///    centers, parameters, correlation profile — the usual ECO: same
///    footprint, different internals) restitches that one instance's
///    subgraph and re-propagates only the cone downstream of it, reusing
///    the design grid, the design-space PCA and every other instance's
///    stitched edges untouched;
///  * rewire_connection restitches one boundary edge and re-propagates
///    downstream of its old and new targets;
///  * set_parameter_sigma refreshes edge coefficients in place (each
///    instance edge is its cached unscaled delay times the new per-slot
///    multipliers; nothing is remapped) and re-propagates, skipping grid
///    and PCA construction.
///
/// move_instance and geometry-incompatible swaps invalidate the
/// coefficient layout — a move because the design grid and its PCA follow
/// the placement (the PCA dimension nearly always shifts). In both
/// correlation modes such a flush runs the full stitch of a from-scratch
/// analysis (hier::stitch_design) — still through analyze(), just not
/// incremental (counted in stats().full_builds). Its design PCA comes from
/// the lineage's table when a sibling state holds an equal layout (below).
///
/// Contract: after any sequence of changes, analyze() returns results
/// bit-identical to a from-scratch flow::Design / analyze_hierarchical run
/// of the changed design, at every thread count of that run (pinned by the
/// IncrementalDifferential fuzz suite). Both sweeps are serial. The
/// downstream-of-dirty sweep recomputes a vertex's arrival from its fanins
/// with timing::fold_fanin, the fold of the full sweep, and stops
/// propagating wherever the recomputed form compares bit-equal to the
/// stored one.
///
/// A DesignState is copyable; incr::ScenarioRunner clones the analyzed
/// base per scenario so batched what-ifs share the clean prefix state.
///
/// Lineage: the constructor and load() start a lineage with its own
/// hier::DesignSpaceTable, and every copy of a state (a served session
/// opened from a loaded design, a ScenarioRunner clone) shares it. A full
/// build whose layout a live state of the lineage already holds reuses
/// that state's design space — no PCA, every bit the same — so
/// design_space() may return a space shared with sibling states. The
/// table holds its spaces weakly; states built separately, or loaded from
/// a saved session, never share.
/// MaxDiagnostics counters are not maintained incrementally (arrivals()
/// reports zeroed diagnostics after an incremental step).

#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "hssta/hier/design.hpp"
#include "hssta/hier/stitch.hpp"
#include "hssta/model/timing_model.hpp"
#include "hssta/timing/propagate.hpp"

namespace hssta::incr {

/// One placed instance, owning (sharing) its model.
struct InstanceSpec {
  std::string name;
  std::shared_ptr<const model::TimingModel> model;
  placement::Point origin;
};

/// The structural description a DesignState analyzes — the same data a
/// hier::HierDesign references, with owned models so swapped-in variants
/// outlive the caller's scope.
struct DesignInputs {
  std::string name = "design";
  /// Fixed die outline; unset = bounding box of the placed instances,
  /// recomputed whenever an instance moves (matching flow::Design).
  std::optional<placement::Die> fixed_die;
  std::vector<InstanceSpec> instances;
  std::vector<hier::Connection> connections;
  std::vector<hier::PrimaryInput> primary_inputs;
  std::vector<hier::PrimaryOutput> primary_outputs;
};

/// Work counters; analyze() updates the per-run fields, the totals
/// accumulate over the state's lifetime.
struct IncrementalStats {
  uint64_t analyses = 0;        ///< analyze() calls that found pending work
  uint64_t full_builds = 0;     ///< from-scratch stitches (incl. the first)
  uint64_t coefficient_refreshes = 0;  ///< sigma refreshes
  uint64_t instances_restitched = 0;
  uint64_t connections_restitched = 0;
  uint64_t vertices_recomputed = 0;  ///< arrival folds in the last analyze
  uint64_t vertices_live = 0;        ///< live vertices at the last analyze
  double last_seconds = 0.0;         ///< wall time of the last analyze
};

class DesignState {
 public:
  explicit DesignState(DesignInputs inputs, hier::HierOptions opts = {});

  /// --- change API (cheap: records dirty state; analyze() recomputes) ----

  /// Swap instance `inst`'s timing model for a variant.
  void replace_module(size_t inst,
                      std::shared_ptr<const model::TimingModel> model);
  /// Re-place instance `inst` at a new origin.
  void move_instance(size_t inst, double x, double y);
  /// Re-route top-level connection `conn` to new endpoints (either or both
  /// may change). Validity — ports in range, target driven once — is
  /// checked at analyze() time, exactly like a from-scratch build.
  void rewire_connection(size_t conn, hier::PortRef from_output,
                         hier::PortRef to_input);
  /// Scale parameter `param`'s correlated sensitivity by `scale` on every
  /// instance-derived edge (see HierOptions::param_sigma_scale).
  void set_parameter_sigma(size_t param, double scale);

  /// True when changes are recorded that analyze() has not flushed yet
  /// (also true before the first analyze()).
  [[nodiscard]] bool pending() const;

  /// Flush pending changes and return the design delay distribution.
  /// Throws (leaving derived state untouched) when the changed design
  /// fails validation — the same errors a from-scratch build raises.
  const timing::CanonicalForm& analyze();

  /// --- views (valid after analyze(); throw before the first one) --------

  [[nodiscard]] const timing::CanonicalForm& delay() const;
  [[nodiscard]] const timing::TimingGraph& graph() const;
  [[nodiscard]] const timing::PropagationResult& arrivals() const;
  /// Arrival of a stitched vertex by name ("inst/vertex", or a design port
  /// name), materialized from the arrival bank; nullopt when absent or
  /// unreached.
  [[nodiscard]] std::optional<timing::CanonicalForm> arrival(
      const std::string& name) const;
  /// The design-level space (null in global-only mode); states of one
  /// lineage at one layout share it.
  [[nodiscard]] std::shared_ptr<const variation::VariationSpace> design_space()
      const;
  [[nodiscard]] const hier::DesignGrid& grid() const;

  [[nodiscard]] const DesignInputs& inputs() const { return inputs_; }
  [[nodiscard]] const hier::HierOptions& options() const { return opts_; }
  [[nodiscard]] const IncrementalStats& stats() const { return stats_; }

  /// --- serialization (incr/serialize.cpp) --------------------------------
  ///
  /// Versioned text format ("hsds 1"), same idioms as the .hstm serializer:
  /// hex-float doubles for bit-exact round trips, strict counts, named
  /// truncation errors, trailing content after 'end' rejected. The save
  /// captures the *logical* design — inputs (with every model embedded as
  /// its cached TimingModel::saved_text, models shared by pointer
  /// deduplicated) and options, pending changes included —
  /// not the derived graphs: a loaded state re-derives everything in its
  /// first analyze() as a deterministic full build, so post-load results
  /// are bit-identical to the saved state's analyze() at any thread count.
  void save(std::ostream& os) const;
  void save_file(const std::string& path) const;
  [[nodiscard]] static DesignState load(std::istream& is);
  [[nodiscard]] static DesignState load_file(const std::string& path);

 private:
  /// The hier:: view of the current inputs (models referenced, not owned).
  [[nodiscard]] hier::HierDesign make_view() const;
  [[nodiscard]] size_t num_params() const;

  void full_build(const hier::HierDesign& view);
  /// Refresh sigma_mult_ from the current options and stitched layout.
  void recompute_sigma_multipliers();
  /// Rewrite every instance edge as its cached unscaled delay
  /// (InstanceStitch::unscaled) times the current sigma multipliers (a
  /// set_parameter_sigma flush).
  void refresh_coefficients();
  void restitch_instance(const hier::HierDesign& view, size_t t,
                         std::vector<timing::VertexId>& seeds);
  void restitch_connection(const hier::HierDesign& view, size_t c,
                           std::vector<timing::VertexId>& seeds);
  void propagate_full();
  void propagate_cone(const std::vector<timing::VertexId>& seeds);
  void clear_pending();

  DesignInputs inputs_;
  hier::HierOptions opts_;
  /// The lineage's design spaces, shared by every copy of this state.
  std::shared_ptr<hier::DesignSpaceTable> spaces_ =
      std::make_shared<hier::DesignSpaceTable>();

  /// --- derived state -----------------------------------------------------
  std::optional<hier::StitchedDesign> st_;
  std::vector<double> sigma_mult_;  ///< per-slot multipliers ({} = all 1)
  timing::PropagationResult arrivals_;
  timing::CanonicalForm delay_;
  IncrementalStats stats_;

  /// --- pending dirty state ------------------------------------------------
  bool full_rebuild_ = true;     ///< layout invalidated (or first build)
  bool coeffs_dirty_ = false;    ///< refresh every edge delay in place
  std::vector<uint8_t> inst_dirty_;  ///< per instance: restitch subgraph
  std::vector<uint8_t> conn_dirty_;  ///< per connection: restitch edge
  /// Per pending rewire: the *stitched* (pre-rewire) target port, recorded
  /// at the first rewire of each connection. restitch_connection seeds it
  /// even when the old edge itself died with a restitched instance's
  /// subgraph — the abandoned target lost its driver either way.
  std::map<size_t, hier::PortRef> rewire_old_targets_;
};

/// Stable 64-bit content fingerprint of a timing model: util::Fnv1a over
/// its serialized (.hstm) text, so two models compare equal exactly when
/// their saved bytes do — the identity the campaign layer keys swapped-in
/// variants by (file paths don't matter, content does). This is the
/// model's cached TimingModel::saved_fingerprint, computed once for a
/// model and all its copies.
[[nodiscard]] uint64_t model_fingerprint(const model::TimingModel& m);

/// Stable 64-bit content fingerprint of a DesignState's logical design:
/// util::Fnv1a over its serialized ("hsds") text — inputs, embedded
/// models and analysis options, pending changes included. Two states with
/// the same fingerprint analyze to bit-identical results. It hashes the
/// pieces save() writes, each model's cached text included, without
/// assembling the text, so its cost is one FNV-1a pass over the saved
/// bytes.
[[nodiscard]] uint64_t state_fingerprint(const DesignState& state);

}  // namespace hssta::incr
