/// \file module.hpp
/// flow::Module — the module-level pipeline as one handle.
///
/// A Module owns everything one IP block needs through the analysis flow —
/// cell library, netlist, placement, variation model, canonical timing
/// graph — and exposes the analyses as lazily computed, cached stages:
///
///   flow::Module m = flow::Module::from_file("c432.bench");
///   m.delay();                 // block-based SSTA (paper Section II)
///   m.critical_paths(5);       // statistical path report
///   m.extract_model();         // gray-box model (Sections III-IV)
///   m.monte_carlo();           // physical MC reference
///
/// Stages are built on first use and cached: repeated calls return the
/// *same* object (pointer-identical), and downstream stages reuse upstream
/// ones, so the handle can be passed around freely without re-running
/// analyses. A Module handle is a cheap shared reference; copies share the
/// underlying state and caches, which also keeps models referenced by a
/// flow::Design alive for exactly as long as the design needs them.
///
/// Parameterized stages (slack at a required time, top-k paths, extraction
/// options, MC options) cache per argument value; calling with the same
/// arguments again returns the cached object.
///
/// Module handles are **thread-safe**: stage getters take a shared lock to
/// check the cache and upgrade to an exclusive lock (double-checked) only
/// to compute, so any number of threads (including a flow::Design sharding
/// its instances across an executor, or an incremental scenario sweep
/// hammering cached stages) may share one handle — a stage is computed
/// exactly once, every caller receives the same object, and **cache hits
/// never serialize**: readers of already-computed stages proceed
/// concurrently even while another thread computes a different stage...
/// except during that computation's exclusive section, which is exactly
/// the once-per-stage window. Returned references are stable and may be
/// used without holding any lock. Compute-heavy stages run on the
/// module's executor (config().threads) unless an explicit executor is
/// passed.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "hssta/cache/model_cache.hpp"
#include "hssta/core/paths.hpp"
#include "hssta/core/ssta.hpp"
#include "hssta/exec/executor.hpp"
#include "hssta/flow/config.hpp"
#include "hssta/library/cell_library.hpp"
#include "hssta/mc/flat_mc.hpp"
#include "hssta/model/extract.hpp"
#include "hssta/netlist/generate.hpp"
#include "hssta/netlist/netlist.hpp"
#include "hssta/stats/empirical.hpp"
#include "hssta/timing/builder.hpp"
#include "hssta/variation/space.hpp"

namespace hssta::flow {

/// Process-wide default 90nm cell library, shared by every Module that is
/// not given an explicit library.
[[nodiscard]] std::shared_ptr<const library::CellLibrary> default_library();

/// The cell library a config selects: cfg.frontend.liberty parsed through
/// the Liberty-lite reader when set, default_library() otherwise. This is
/// what every Module factory uses when no explicit library is passed.
[[nodiscard]] std::shared_ptr<const library::CellLibrary> frontend_library(
    const Config& cfg);

class Module {
 public:
  /// --- factories ---------------------------------------------------------
  /// `lib` defaults to frontend_library(cfg) — the built-in 90nm library,
  /// or the Liberty-lite file named by cfg.frontend.liberty. A netlist
  /// passed to from_netlist must have been built against `lib` (its gates
  /// alias the library's CellType storage). Every factory refuses a
  /// sequential netlist when cfg.frontend.sequential is false.

  [[nodiscard]] static Module from_netlist(
      netlist::Netlist nl, Config cfg = {},
      std::shared_ptr<const library::CellLibrary> lib = nullptr);
  /// Load a netlist file by *content* (detect.hpp): .bench and BLIF are
  /// accepted; anything else throws an Error naming both the detected
  /// format and the supported ones. For BLIF, cfg.frontend.blif_model
  /// selects the top model of a multi-model file (empty = first model).
  [[nodiscard]] static Module from_file(
      const std::string& path, Config cfg = {},
      std::shared_ptr<const library::CellLibrary> lib = nullptr);
  [[nodiscard]] static Module from_bench_string(
      const std::string& text, Config cfg = {},
      std::shared_ptr<const library::CellLibrary> lib = nullptr);
  [[nodiscard]] static Module from_iscas(
      std::string_view name, Config cfg = {}, uint64_t seed = 2009,
      std::shared_ptr<const library::CellLibrary> lib = nullptr);
  [[nodiscard]] static Module from_random_dag(
      const netlist::RandomDagSpec& spec, Config cfg = {},
      std::shared_ptr<const library::CellLibrary> lib = nullptr);

  /// --- identity ----------------------------------------------------------

  [[nodiscard]] const std::string& name() const;
  [[nodiscard]] const Config& config() const;
  [[nodiscard]] const library::CellLibrary& library() const;
  [[nodiscard]] const netlist::Netlist& netlist() const;

  /// --- pipeline stages (lazy, cached) -------------------------------------

  [[nodiscard]] const placement::Placement& placement() const;
  [[nodiscard]] const variation::ModuleVariation& variation() const;
  [[nodiscard]] const timing::BuiltGraph& built() const;
  [[nodiscard]] const timing::TimingGraph& graph() const;

  /// --- analyses (lazy, cached) --------------------------------------------

  /// Block-based SSTA of the full module.
  [[nodiscard]] const core::SstaResult& ssta() const;
  /// The module delay distribution (= ssta().delay).
  [[nodiscard]] const timing::CanonicalForm& delay() const;
  /// Statistical slack against a deterministic required time at every
  /// output port; cached per required time.
  [[nodiscard]] const core::SlackResult& slack(
      double required_at_outputs) const;
  /// The k most critical paths; cached per k.
  [[nodiscard]] const std::vector<core::CriticalPath>& critical_paths(
      size_t k) const;
  /// Gray-box timing model extraction with config().extract options; the
  /// overloads cache per option value (the executor does not participate
  /// in the key — results are bit-identical at every thread count). The
  /// two-argument form runs on `ex` instead of the module's executor,
  /// letting an outer scheduler (e.g. flow::Design instance sharding)
  /// control the fan-out. When config().cache is active, the persistent
  /// .hstm cache is consulted first — a hit loads a byte-identical model
  /// without running the pipeline — and populated after a fresh
  /// extraction; see cache::ModelCache for the key and storage contract.
  [[nodiscard]] const model::Extraction& extract_model() const;
  [[nodiscard]] const model::Extraction& extract_model(
      const model::ExtractOptions& opts) const;
  [[nodiscard]] const model::Extraction& extract_model(
      const model::ExtractOptions& opts, exec::Executor& ex) const;
  /// The extracted model (= extract_model().model).
  [[nodiscard]] const model::TimingModel& model() const;
  /// The extracted model as a shared handle: aliases this module's state,
  /// so the model stays alive for as long as the pointer does. The natural
  /// way to hand a module's model to incr::DesignState::replace_module or
  /// an incr::ReplaceModule scenario — extraction (cache-consulting, like
  /// model()) runs on first use.
  [[nodiscard]] std::shared_ptr<const model::TimingModel> model_ptr() const;
  /// The scalar-evaluable physical view used by Monte Carlo.
  [[nodiscard]] const mc::FlatCircuit& flat_circuit() const;
  /// Physical Monte Carlo of the module delay with config().mc options;
  /// the overload caches per option value.
  [[nodiscard]] const stats::EmpiricalDistribution& monte_carlo() const;
  [[nodiscard]] const stats::EmpiricalDistribution& monte_carlo(
      const McOptions& opts) const;

  /// Hit/miss counters of this module's persistent model cache (all zero
  /// when the cache is inactive or no extraction has run yet).
  [[nodiscard]] cache::CacheStats cache_stats() const;

 private:
  friend class Design;
  struct State;
  explicit Module(std::shared_ptr<State> state) : state_(std::move(state)) {}

  std::shared_ptr<State> state_;
};

}  // namespace hssta::flow
