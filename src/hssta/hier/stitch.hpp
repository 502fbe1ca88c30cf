/// \file stitch.hpp
/// The design-level stitching core shared by the one-shot analysis
/// (analyze_hierarchical) and the incremental engine (incr::DesignState).
///
/// Stitching turns a validated HierDesign into one design-level timing
/// graph: every instance's model subgraph is copied in with its edge delays
/// remapped into the design coefficient space (paper eq. 19 in replacement
/// mode; private spatial slots in the global-only baseline), top-level
/// connections become boundary edges, and design ports become dedicated
/// port vertices. StitchedDesign additionally records full provenance —
/// which design vertices/edges came from which module vertex/edge of which
/// instance, and each instance edge's remapped delay before sigma scaling —
/// so the incremental engine can later restitch exactly one instance,
/// rewire one connection, or refresh coefficients in place, reproducing the
/// arithmetic of a from-scratch stitch bit for bit.

#pragma once

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "hssta/hier/design.hpp"
#include "hssta/hier/design_grid.hpp"
#include "hssta/hier/hier_ssta.hpp"
#include "hssta/hier/replace.hpp"
#include "hssta/linalg/matrix.hpp"
#include "hssta/timing/form_bank.hpp"
#include "hssta/timing/graph.hpp"

namespace hssta::hier {

/// Per-instance coefficient remapper for the two correlation modes. In
/// replacement mode every module-space form transforms through R into the
/// design space; in global-only mode the globals move to the shared head
/// and the spatial block to the instance's private slot range.
class InstanceRemapper {
 public:
  /// Replacement mode, computing R from the spaces.
  [[nodiscard]] static InstanceRemapper replacement(
      const variation::VariationSpace& module_space,
      const variation::VariationSpace& design_space,
      std::span<const size_t> design_grids);

  /// Global-only baseline: copy the spatial block to a private slot range.
  [[nodiscard]] static InstanceRemapper global_only(
      const variation::VariationSpace& module_space, size_t total_dim,
      size_t num_params, size_t spatial_slot);

  [[nodiscard]] timing::CanonicalForm operator()(
      const timing::CanonicalForm& form) const;

  /// The replacement matrix (replacement mode only).
  [[nodiscard]] const linalg::Matrix& r() const { return r_; }

 private:
  InstanceRemapper() = default;

  const variation::VariationSpace* module_space_ = nullptr;
  const variation::VariationSpace* design_space_ = nullptr;
  linalg::Matrix r_;
  size_t total_dim_ = 0;
  size_t num_params_ = 0;
  size_t spatial_slot_ = 0;
};

/// Delay of one top-level connection: the fixed interconnect delay plus,
/// with load_aware_boundary, drive_res(out) * input_cap(in) and its
/// load-sigma random part. Identical arithmetic in both analysis paths.
[[nodiscard]] timing::CanonicalForm connection_delay(const HierDesign& design,
                                                     const HierOptions& opts,
                                                     const Connection& c,
                                                     size_t total_dim);

/// Per-slot multipliers realizing HierOptions::param_sigma_scale over the
/// design coefficient layout: slot i of parameter p's global variable and
/// spatial block(s) gets scale[p], everything else 1. Empty when every
/// scale is 1 (the common case — callers skip the scaling pass entirely,
/// keeping the default path bit-identical to the pre-scaling code).
/// `private_slots`/`private_components` describe the global-only layout
/// (empty in replacement mode, where `design_space` fixes the layout).
[[nodiscard]] std::vector<double> sigma_multipliers(
    const HierOptions& opts, size_t total_dim, size_t num_params,
    const variation::VariationSpace* design_space,
    std::span<const size_t> private_slots,
    std::span<const size_t> private_components);

/// Scale a form's correlated coefficients by per-slot multipliers (no-op
/// for an empty multiplier vector).
void apply_sigma_scale(std::span<const double> multipliers,
                       timing::CanonicalForm& form);

/// Provenance of one stitched instance.
struct InstanceStitch;

/// Stitch one instance's model subgraph into `g`: vertices then edges, in
/// model slot order, each edge delay remapped and sigma-scaled. Fills
/// `out.vertex_map`/`out.edge_map` and gives `out.unscaled` a fresh bank;
/// the caller records R / private_slot.
/// Exactly the loop stitch_design runs per instance, shared so the
/// incremental engine's single-instance restitch reproduces its vertex
/// naming, edge ordering and arithmetic bit for bit.
void stitch_instance_subgraph(timing::TimingGraph& g,
                              const ModuleInstance& inst,
                              const InstanceRemapper& remap,
                              std::span<const double> sigma_mult,
                              InstanceStitch& out);

/// Provenance of one stitched instance.
struct InstanceStitch {
  /// Module vertex slot -> design vertex (kNoVertex for dead slots).
  std::vector<timing::VertexId> vertex_map;
  /// Module edge slot -> design edge (kNoEdge for dead slots).
  std::vector<timing::EdgeId> edge_map;
  /// Module edge slot -> that edge's delay exactly as the remapper returned
  /// it, before sigma scaling (a zero row for dead slots). A sigma refresh
  /// rebuilds each edge as its row times the current multipliers, without
  /// remapping again. Copies of a stitch share the bank; a restitch gives
  /// its instance a new bank and never writes into an existing one.
  /// (total_dim + 2) doubles per edge slot.
  std::shared_ptr<const timing::FormBank> unscaled;
  /// Replacement matrix R of this instance (replacement mode; empty
  /// otherwise).
  linalg::Matrix r;
  /// First private spatial slot (global-only mode; 0 otherwise).
  size_t private_slot = 0;
};

/// A stitched design graph plus everything needed to edit it in place.
struct StitchedDesign {
  timing::TimingGraph graph{size_t{0}};  ///< replaced by stitch_design
  /// Null in global-only mode (which has no joint design PCA).
  std::shared_ptr<const variation::VariationSpace> design_space;
  DesignGrid grid;
  size_t total_dim = 0;
  std::vector<InstanceStitch> instances;
  /// Per top-level connection: its boundary edge.
  std::vector<timing::EdgeId> connection_edges;
  /// Per primary input: its port vertex and one edge per sink.
  std::vector<timing::VertexId> pi_vertices;
  std::vector<std::vector<timing::EdgeId>> pi_edges;
  /// Per primary output: its port vertex and feeding edge.
  std::vector<timing::VertexId> po_vertices;
  std::vector<timing::EdgeId> po_edges;

  /// The stitched vertex of an instance input/output port reference.
  [[nodiscard]] timing::VertexId input_vertex(const HierDesign& design,
                                              const PortRef& r) const;
  [[nodiscard]] timing::VertexId output_vertex(const HierDesign& design,
                                               const PortRef& r) const;
};

/// Build the stitched design graph with provenance. Validates the design,
/// builds the heterogeneous grid and (in replacement mode) the design
/// space, then stitches instances, connections and ports in a fixed order
/// — the vertex/edge numbering every from-scratch analysis shares.
[[nodiscard]] StitchedDesign stitch_design(const HierDesign& design,
                                           const HierOptions& opts = {});

}  // namespace hssta::hier
