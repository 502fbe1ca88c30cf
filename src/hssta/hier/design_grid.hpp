/// \file design_grid.hpp
/// The heterogeneous design-level grid partition of paper Section V
/// (Fig. 4): the die area covered by each module instance re-uses that
/// module's characterization grids (translated to the instance origin, so
/// the design-level correlation sub-matrix of a module equals its
/// characterization matrix exactly); the remaining area is covered by
/// default-pitch filler grids.
///
/// All modules must share one grid pitch (the paper's "default grid size")
/// — with differing pitches the sub-matrix identity behind the variable
/// replacement (eq. 18) would no longer hold.

#pragma once

#include <memory>
#include <mutex>
#include <vector>

#include "hssta/hier/design.hpp"
#include "hssta/variation/grid.hpp"
#include "hssta/variation/space.hpp"

namespace hssta::hier {

struct DesignGrid {
  /// All design-level grid centers; modules first (instance order, module
  /// grid order within), then filler grids.
  variation::GridGeometry geometry;
  /// Per instance: module grid index -> design grid index.
  std::vector<std::vector<size_t>> instance_grids;
  size_t filler_count = 0;

  /// Design grid holding a die location: module grids win inside module
  /// outlines, otherwise the nearest filler (or overall nearest) center.
  [[nodiscard]] size_t grid_of(const placement::Point& p,
                               const HierDesign& design) const;
};

/// Most grids a design may need: its module grids plus every default-pitch
/// filler cell over the die, counted before any allocation. A design grid
/// of n cells costs n x n correlation and eigenvector matrices (128 MiB
/// each at the limit) and an O(n^3) PCA, so a far placement (a die
/// stretched to 1e5 um and beyond) fails with a named error instead of
/// allocating gigabytes. The largest design any test, example, bench
/// program, CI line or perfbench workload builds counts 288 grids.
inline constexpr size_t kMaxDesignGrids = 4096;

/// Build the heterogeneous partition for a design. Throws when the design
/// would need more than kMaxDesignGrids grids.
[[nodiscard]] DesignGrid build_design_grid(const HierDesign& design);

/// Build the design-level variation space over the heterogeneous grids
/// (the PCA of paper eq. 16). Parameter set and correlation profile are
/// taken from the instances' module spaces, which must agree.
[[nodiscard]] std::shared_ptr<const variation::VariationSpace>
build_design_space(const HierDesign& design, const DesignGrid& grid,
                   linalg::PcaOptions pca_opts = {});

/// The design spaces of one incr::DesignState lineage (a state and every
/// copy made from it), keyed by content. A layout's space depends only on
/// what VariationSpace's constructor reads — the parameter set, the grid
/// geometry, the correlation profile and the PCA options — so a state that
/// moves to a layout a live sibling already holds can share that space
/// instead of running the PCA again, and every bit stays the same.
///
/// Entries are weak: a space lives exactly as long as some stitched state
/// holds it, and the table keeps nothing alive. A hit needs bitwise
/// equality of every constructor input; a live lineage holds a handful of
/// spaces, so lookup is a linear scan. Thread-safe: copies of one state
/// may build concurrently (ScenarioRunner, served sessions). From-scratch
/// paths (analyze_hierarchical, flow::Design::analyze) never consult a
/// table, so they stay an independent PCA oracle for the incremental one.
class DesignSpaceTable {
 public:
  /// The design space of `grid` under `design`'s parameters and correlation
  /// profile: a live space of this table built from bitwise-equal inputs,
  /// or else a fresh build_design_space, recorded. Validates exactly like
  /// build_design_space, hit or miss.
  [[nodiscard]] std::shared_ptr<const variation::VariationSpace> get(
      const HierDesign& design, const DesignGrid& grid,
      linalg::PcaOptions pca_opts);

 private:
  struct Entry {
    linalg::PcaOptions pca;
    std::weak_ptr<const variation::VariationSpace> space;
  };

  std::mutex mu_;
  std::vector<Entry> entries_;
};

}  // namespace hssta::hier
