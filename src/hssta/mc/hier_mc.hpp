/// \file hier_mc.hpp
/// Flattened hierarchical Monte Carlo: the ground truth of the paper's
/// Fig. 7. Every instance's *original* netlist is flattened onto the design
/// die, cells keep their module-local placement shifted by the instance
/// origin, and the local parameter deviates are drawn with the exact
/// design-level grid covariance — so cross-module spatial correlation is
/// physically present, independent of any PCA or canonical machinery.

#pragma once

#include "hssta/hier/design.hpp"
#include "hssta/hier/design_grid.hpp"
#include "hssta/mc/flat_mc.hpp"

namespace hssta::mc {

struct FlattenOptions {
  /// Mirror of HierOptions::interconnect_delay.
  double interconnect_delay = 0.0;
  /// Mirror of HierOptions::load_aware_boundary.
  bool load_aware_boundary = false;
};

/// Flatten a design (all instances must carry netlist + module placement)
/// into a scalar-evaluable circuit over the design grid; its sample_delay
/// draws the design delay distribution (flow::Design::monte_carlo() runs
/// both steps).
[[nodiscard]] FlatCircuit flatten_design(const hier::HierDesign& design,
                                         const hier::DesignGrid& grid,
                                         const FlattenOptions& opts = {});

}  // namespace hssta::mc
