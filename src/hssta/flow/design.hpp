/// \file design.hpp
/// flow::Design — the design-level pipeline as one handle.
///
/// A Design assembles placed instances of pre-characterized modules and
/// exposes the paper's hierarchical analysis (Section V) as lazily
/// computed, cached stages:
///
///   flow::Design d("soc");
///   const size_t a = d.add_instance(module, 0, 0, "a");
///   const size_t b = d.add_instance(module, w, 0, "b");
///   d.connect(a, 0, b, 0);                 // a.out0 -> b.in0
///   d.primary_input("pi0", a, 0);
///   d.primary_output("po0", b, 0);
///   d.analyze().delay();                   // stitched distribution
///   d.monte_carlo();                       // flattened MC reference
///
/// Instances come from three sources:
///  * a flow::Module — the model is extracted on demand and the module's
///    netlist/placement are retained so flattened Monte Carlo works;
///  * a loaded model (TimingModel::load_file / add_instance_from_model_file)
///    — the paper's IP hand-off: analysis works, Monte Carlo (which needs
///    the original netlist) does not;
///  * any shared_ptr<const TimingModel>.
///
/// The design die defaults to the bounding box of the placed instances; a
/// fixed outline can be given at construction. Structural mutation after an
/// analysis invalidates the cached results.
///
/// Analysis is sharded: before the (serial) stitching pass, the design
/// extracts the timing model of every instance backed by a live module in
/// parallel across its executor (config().threads) — the embarrassingly
/// parallel per-instance half of the paper's Fig. 5 flow. Monte Carlo
/// sample batches fan out across the same executor. Results are
/// bit-identical at every thread count, and the analysis/MC stages are
/// safe to query from concurrent threads (structural mutation is not).

#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "hssta/check/check.hpp"
#include "hssta/exec/executor.hpp"
#include "hssta/flow/config.hpp"
#include "hssta/flow/module.hpp"
#include "hssta/hier/design.hpp"
#include "hssta/hier/hier_ssta.hpp"
#include "hssta/incr/design_state.hpp"
#include "hssta/incr/scenario.hpp"
#include "hssta/mc/hier_mc.hpp"
#include "hssta/stats/empirical.hpp"

namespace hssta::flow {

class Design {
 public:
  /// Die = bounding box of the placed instances.
  explicit Design(std::string name, Config cfg = {});
  /// Fixed die outline.
  Design(std::string name, placement::Die die, Config cfg = {});

  /// Move-constructible (fresh internal mutex; caches move along), so
  /// factory functions can return by value. Moving requires exclusive
  /// access, like any structural mutation. Not copyable or move-assignable
  /// — nothing needs assignment, and the hand-written member list exists
  /// once. A member omitted from the move ctor would only drop a
  /// recomputable cache, never corrupt structural state (those failures
  /// are loud).
  Design(Design&& other) noexcept;
  Design& operator=(Design&& other) = delete;
  Design(const Design&) = delete;
  Design& operator=(const Design&) = delete;

  /// --- assembly ----------------------------------------------------------

  /// Place a module instance with its origin at (x, y); returns its index.
  /// The instance name defaults to "u<index>". The module handle is
  /// retained (shared), and its model is extracted lazily at analysis time
  /// with the *module's* configured extraction options.
  size_t add_instance(const Module& module, double x, double y,
                      std::string name = "");
  /// Place an instance of a stand-alone model (e.g. loaded from .hstm).
  /// Monte Carlo is unavailable for designs with model-only instances.
  size_t add_instance(std::shared_ptr<const model::TimingModel> model,
                      double x, double y, std::string name = "");
  /// Convenience: TimingModel::load_file + add_instance.
  size_t add_instance_from_model_file(const std::string& path, double x,
                                      double y, std::string name = "");

  /// Wire output port `from_port` of instance `from` to input port
  /// `to_port` of instance `to`.
  void connect(size_t from, size_t from_port, size_t to, size_t to_port);
  /// Declare a design primary input driving an instance input; calling
  /// again with the same name fans the input out to more sinks.
  void primary_input(const std::string& name, size_t inst, size_t port);
  /// Declare a design primary output fed by an instance output.
  void primary_output(const std::string& name, size_t inst, size_t port);
  /// Expose every instance input that no connection or primary input
  /// drives ("<inst>_i<port>") and every instance output no connection or
  /// primary output reads ("<inst>_o<port>") as primary ports. Convenient
  /// for CLI-assembled designs where only the stitched topology matters.
  void expose_unconnected_ports();

  /// --- introspection -----------------------------------------------------

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const Config& config() const { return cfg_; }
  [[nodiscard]] size_t num_instances() const { return instances_.size(); }
  [[nodiscard]] const std::string& instance_name(size_t inst) const;
  /// The instance's (lazily extracted or loaded) timing model.
  [[nodiscard]] const model::TimingModel& instance_model(size_t inst) const;
  [[nodiscard]] size_t num_inputs(size_t inst) const;
  [[nodiscard]] size_t num_outputs(size_t inst) const;
  /// True when every instance carries its source netlist, i.e. flattened
  /// Monte Carlo is possible.
  [[nodiscard]] bool can_monte_carlo() const;
  /// Persistent model-cache hit/miss counters summed over the distinct
  /// modules backing this design's instances (shared handles counted
  /// once; all zero when no module caches). Model-file instances never
  /// touch the cache.
  [[nodiscard]] cache::CacheStats cache_stats() const;

  /// --- pipeline stages (lazy, cached) -------------------------------------

  /// The assembled + validated hier::HierDesign (subsystem-level view).
  [[nodiscard]] const hier::HierDesign& hier() const;
  /// Static design diagnostics (check::run_checks over the assembled but
  /// *unvalidated* hierarchical view, fanned per-instance across the
  /// design executor): never throws on a malformed design — it reports it.
  /// Severities come from config().check_severity unless an explicit
  /// options object is passed. Models are still extracted (the stitch
  /// boundary cannot be checked without them), so a clean() report means
  /// analyze() will not fail structurally.
  [[nodiscard]] check::Report check() const;
  [[nodiscard]] check::Report check(const check::CheckOptions& opts) const;
  /// Design-level hierarchical SSTA with config().hier options; the
  /// overload caches per option value.
  [[nodiscard]] const hier::HierResult& analyze() const;
  [[nodiscard]] const hier::HierResult& analyze(
      const hier::HierOptions& opts) const;
  /// The stitched design delay distribution (= analyze().delay()).
  [[nodiscard]] const timing::CanonicalForm& delay() const;
  /// Flattened-netlist Monte Carlo with config().mc options; throws
  /// hssta::Error if an instance lacks its netlist (see can_monte_carlo).
  [[nodiscard]] const stats::EmpiricalDistribution& monte_carlo() const;
  [[nodiscard]] const stats::EmpiricalDistribution& monte_carlo(
      const McOptions& opts) const;
  /// The flattened scalar-evaluable circuit backing monte_carlo().
  [[nodiscard]] const mc::FlatCircuit& flat_circuit() const;

  /// --- incremental re-analysis (ECO / what-if) ----------------------------

  /// The incremental engine bound to this design's current structure and
  /// config().hier options, built (and fully analyzed) on first use.
  /// Apply changes through its API (replace_module / move_instance /
  /// rewire_connection / set_parameter_sigma), then analyze_incremental()
  /// — only the affected cone recomputes, bit-identical to a from-scratch
  /// analyze() of the changed design. Structural mutation of the Design
  /// itself discards the engine (it re-derives from the new structure).
  /// Unlike the read-only stages, the returned reference is mutable state:
  /// do not share it across threads without external synchronization.
  [[nodiscard]] incr::DesignState& incremental() const;
  /// incremental().analyze(): flush pending incremental changes (or run
  /// the first build) and return the design delay distribution.
  const timing::CanonicalForm& analyze_incremental() const;
  /// Batched what-if scenarios over the analyzed base state, fanned out
  /// across the design executor; see incr::ScenarioRunner.
  [[nodiscard]] std::vector<incr::ScenarioResult> scenarios(
      std::span<const incr::Scenario> list) const;

 private:
  struct Instance {
    std::string name;
    /// Exactly one of `module` / `model` is set.
    std::optional<Module> module;
    std::shared_ptr<const model::TimingModel> model;
    placement::Point origin;

    [[nodiscard]] const model::TimingModel& timing_model() const;
  };

  void invalidate();
  [[nodiscard]] const Instance& instance(size_t inst) const;
  /// Assemble the hier::HierDesign view (models prefilled, nothing
  /// validated). Shared by hier() (which validates + caches) and check()
  /// (which must see broken designs). Call with `mu_` held.
  [[nodiscard]] hier::HierDesign assemble_hier() const;
  /// Extract every live-module instance's timing model across the design
  /// executor (each task extracts on exec::serial()); no-op once cached.
  /// Call with `mu_` held.
  void prefill_models() const;
  /// The design's executor (config threads). Call with `mu_` held.
  [[nodiscard]] exec::Executor& executor() const;

  std::string name_;
  Config cfg_;
  std::optional<placement::Die> fixed_die_;
  std::vector<Instance> instances_;
  std::vector<hier::Connection> connections_;
  std::vector<hier::PrimaryInput> inputs_;
  std::vector<hier::PrimaryOutput> outputs_;

  /// Cache keys for the parameterized stages (std::map nodes are
  /// address-stable, so references returned earlier survive later calls
  /// with different options).
  using HierKey = std::tuple<int, bool, double, double, double, size_t,
                             std::vector<double>>;
  using McKey = std::pair<size_t, uint64_t>;

  mutable std::recursive_mutex mu_;
  mutable std::shared_ptr<exec::Executor> exec_;
  mutable std::optional<hier::HierDesign> hier_;
  mutable std::map<HierKey, hier::HierResult> results_;
  mutable std::optional<mc::FlatCircuit> flat_;
  mutable std::map<McKey, stats::EmpiricalDistribution> mc_;
  mutable std::optional<incr::DesignState> incr_;
};

}  // namespace hssta::flow
