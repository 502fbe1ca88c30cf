/// \file config.hpp
/// One configuration object for the whole analysis pipeline.
///
/// Every stage of the flow — placement, variation modelling, timing-graph
/// construction, model extraction, hierarchical stitching, Monte Carlo —
/// has its own option struct in its own subsystem. flow::Config gathers
/// them with the paper's Section VI defaults (90nm parameters, 0.92
/// neighbour correlation, delta = 0.05, < 100 cells per grid) so that a
/// consumer configures one object instead of re-wiring six.
///
/// Configs load from a small TOML-like text format ("key = value" lines,
/// optional "[section]" headers, '#' comments):
///
///   [extract]
///   delta = 0.02
///   [hier]
///   mode = global_only
///   interconnect_delay = 0.01
///   [mc]
///   samples = 20000
///
/// Unknown keys and malformed values throw hssta::Error with the offending
/// line, so a typo in a run configuration fails loudly instead of silently
/// analyzing with defaults.

#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>

#include "hssta/check/severity.hpp"
#include "hssta/hier/hier_ssta.hpp"
#include "hssta/linalg/pca.hpp"
#include "hssta/model/extract.hpp"
#include "hssta/placement/placement.hpp"
#include "hssta/timing/builder.hpp"
#include "hssta/variation/parameters.hpp"
#include "hssta/variation/spatial.hpp"

namespace hssta::flow {

/// The default for Config::threads: the HSSTA_THREADS environment variable
/// when set (0 there means "hardware concurrency"), otherwise 1 (serial).
/// Results are bit-identical at every thread count, so the knob is purely
/// about speed. A malformed value, or one above exec::kMaxThreads, falls
/// back to serial with a one-time stderr warning (a misconfigured CI job
/// should not silently lose its parallelism).
[[nodiscard]] size_t default_threads();

/// The default for CacheOptions::dir: the HSSTA_CACHE_DIR environment
/// variable when set, otherwise "" (caching off). A blank value is treated
/// as unset with a one-time stderr warning.
[[nodiscard]] std::string default_cache_dir();

/// Persistent model cache controls ([cache] dir, enabled). The cache is
/// active when `enabled` and `dir` is non-empty; extracted .hstm models are
/// then reused across processes, keyed by the (netlist, library, config,
/// extraction options) fingerprint — see cache::ModelCache.
struct CacheOptions {
  std::string dir = default_cache_dir();
  bool enabled = true;

  [[nodiscard]] bool active() const { return enabled && !dir.empty(); }
  bool operator==(const CacheOptions&) const = default;
};

/// Netlist front-end controls ([frontend] sequential, liberty,
/// blif_model). Excluded from extraction_fingerprint: the library content
/// is hashed separately into the cache key (library::fingerprint), and the
/// other knobs only gate/select what gets loaded, never change a loaded
/// netlist's model.
struct FrontendOptions {
  /// Accept sequential netlists (registers). When false, a netlist with
  /// registers is refused loudly instead of analyzed.
  bool sequential = true;
  /// Path to a Liberty-lite .lib file used as the cell library for
  /// netlist reading; empty selects the built-in 90nm library.
  std::string liberty;
  /// Top model to elaborate from multi-model BLIF files; empty selects
  /// the first model.
  std::string blif_model;

  bool operator==(const FrontendOptions&) const = default;
};

/// Monte Carlo controls shared by module- and design-level sampling.
struct McOptions {
  size_t samples = 10000;  ///< the paper's Section VI sample count
  uint64_t seed = 2009;

  bool operator==(const McOptions&) const = default;
};

/// The consolidated pipeline configuration. Defaults reproduce the paper's
/// Section VI experimental setup exactly.
struct Config {
  /// Row placement of module cells ([place] row_height, target_aspect,
  /// utilization).
  placement::PlaceOptions place;
  /// Process parameters: Leff/Tox/Vth with the 0.42/0.53/0.05 variance
  /// split ([parameters] load_sigma).
  variation::ParameterSet parameters = variation::default_90nm_parameters();
  /// Spatial correlation profile ([correlation] rho_neighbor, rho_global,
  /// cutoff).
  variation::SpatialCorrelationConfig correlation;
  /// Grid partition bound, Chang & Sapatnekar's "< 100 cells per grid"
  /// rule ([grid] max_cells).
  size_t max_cells_per_grid = 100;
  /// Module-level PCA truncation ([pca] min_explained, max_components).
  linalg::PcaOptions pca;
  /// Timing-graph construction ([build] output_port_cap,
  /// register_pin_cap).
  timing::BuildOptions build;
  /// Netlist front end ([frontend] sequential, liberty, blif_model).
  FrontendOptions frontend;
  /// Model extraction ([extract] delta, repair_connectivity).
  model::ExtractOptions extract;
  /// Design-level hierarchical analysis ([hier] mode, load_aware_boundary,
  /// interconnect_delay, pca.min_explained, pca.max_components).
  hier::HierOptions hier;
  /// Monte Carlo reference runs ([mc] samples, seed).
  McOptions mc;
  /// Worker threads for the compute layer ([exec] threads, or the bare key
  /// "threads"): 0 = hardware concurrency, 1 = serial (default; see
  /// default_threads()); the key rejects a count above exec::kMaxThreads.
  /// Applies to every executor-driven stage — model extraction /
  /// criticality, all-pairs IO delays, Monte Carlo batches and per-instance
  /// design analysis — without changing any result bit.
  size_t threads = default_threads();
  /// Unused, and not a config key: every sweep has one schedule. The field
  /// stays only because perfbench/src/characterize.cpp assigns it to
  /// core::CriticalityOptions::level_parallel; the next benchmark change
  /// deletes that line, this field and the CriticalityOptions one.
  timing::LevelParallel level_parallel = timing::LevelParallel::kAuto;
  /// Persistent .hstm model cache ([cache] dir, enabled; dir defaults to
  /// HSSTA_CACHE_DIR). Purely a speed knob: a hit loads a byte-identical
  /// model, so results never depend on cache state.
  CacheOptions cache;
  /// Static-check severity overrides ([check] HSC012 = warn|error|info|off;
  /// rule ids are validated against the check catalog at parse time).
  /// Feeds check::CheckOptions wherever the design-lint pass runs; excluded
  /// from extraction_fingerprint (diagnostics never change a model).
  check::SeverityMap check_severity;

  /// Apply one "section.key" (or bare "key") assignment; throws
  /// hssta::Error on unknown keys or malformed values.
  void set(const std::string& key, const std::string& value);

  /// Parse the TOML-like format described above. `origin` names the source
  /// in error messages.
  static Config from_stream(std::istream& is,
                            const std::string& origin = "<config>");
  static Config from_string(const std::string& text);
  static Config from_file(const std::string& path);
};

/// Stable 64-bit fingerprint of every Config field that influences a
/// module's *extracted timing model*: placement, process parameters,
/// correlation, grid bound, module PCA truncation and graph construction.
/// Excluded by design: extract options (hashed separately per extraction
/// via model::fingerprint), hier/mc options (downstream of the model) and
/// the speed knobs threads / cache (bit-identical
/// results). One third of the model cache key, next to the netlist and
/// library fingerprints.
[[nodiscard]] uint64_t extraction_fingerprint(const Config& cfg);

}  // namespace hssta::flow
