/// \file hssta.hpp
/// Umbrella header: the full public API of the hssta library.
///
/// The API has two layers:
///
///  * The **flow facade** (hssta/flow/) — the recommended entry point.
///    flow::Module runs the module-level pipeline (netlist -> placement ->
///    variation -> timing graph -> SSTA / model extraction / Monte Carlo)
///    as lazily computed, cached stages behind one handle; flow::Design
///    stitches placed module instances at design level; flow::Config
///    gathers every stage's options with the paper's Section VI defaults
///    and loads them from key=value files.
///
///  * The **subsystem headers** (hssta/core, hssta/hier, hssta/model, ...)
///    — the individual stages, for callers who compose pipelines manually
///    or extend them.
///
/// See docs/API.md for the module -> extract -> hierarchical lifecycle and
/// a migration table from hand-wired subsystem calls to the facade.

#pragma once

#include "hssta/flow/flow.hpp"

#include "hssta/cache/model_cache.hpp"
#include "hssta/core/criticality.hpp"
#include "hssta/core/io_delays.hpp"
#include "hssta/core/paths.hpp"
#include "hssta/core/ssta.hpp"
#include "hssta/exec/executor.hpp"
#include "hssta/hier/design.hpp"
#include "hssta/hier/design_grid.hpp"
#include "hssta/hier/hier_ssta.hpp"
#include "hssta/hier/replace.hpp"
#include "hssta/hier/stitch.hpp"
#include "hssta/incr/design_state.hpp"
#include "hssta/incr/scenario.hpp"
#include "hssta/library/cell_library.hpp"
#include "hssta/linalg/cholesky.hpp"
#include "hssta/linalg/eigen.hpp"
#include "hssta/linalg/matrix.hpp"
#include "hssta/linalg/pca.hpp"
#include "hssta/mc/flat_mc.hpp"
#include "hssta/mc/hier_mc.hpp"
#include "hssta/model/extract.hpp"
#include "hssta/model/reduce.hpp"
#include "hssta/model/timing_model.hpp"
#include "hssta/netlist/bench_io.hpp"
#include "hssta/netlist/generate.hpp"
#include "hssta/netlist/iscas.hpp"
#include "hssta/netlist/netlist.hpp"
#include "hssta/placement/placement.hpp"
#include "hssta/stats/empirical.hpp"
#include "hssta/stats/histogram.hpp"
#include "hssta/stats/normal.hpp"
#include "hssta/stats/rng.hpp"
#include "hssta/timing/builder.hpp"
#include "hssta/timing/canonical.hpp"
#include "hssta/timing/graph.hpp"
#include "hssta/timing/propagate.hpp"
#include "hssta/timing/sta.hpp"
#include "hssta/timing/statops.hpp"
#include "hssta/util/argparse.hpp"
#include "hssta/util/ascii_plot.hpp"
#include "hssta/util/csv.hpp"
#include "hssta/util/error.hpp"
#include "hssta/util/strings.hpp"
#include "hssta/util/table.hpp"
#include "hssta/util/timer.hpp"
#include "hssta/variation/grid.hpp"
#include "hssta/variation/parameters.hpp"
#include "hssta/variation/space.hpp"
#include "hssta/variation/spatial.hpp"
