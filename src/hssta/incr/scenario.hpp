/// \file scenario.hpp
/// incr::ScenarioRunner — batched what-if sweeps over one analyzed design.
///
/// A Scenario is a labelled list of changes (module-variant swaps,
/// placement perturbations, connection rewires, corner-like sigma
/// scalings). The runner clones the analyzed base DesignState per scenario
/// — sharing the clean prefix: stitched graph, provenance, design space
/// and arrival state all copy, none of it recomputes — applies the changes
/// incrementally, and fans the scenarios out across an executor. Each
/// clone analyzes serially inside its work item, so results are
/// bit-identical at every runner thread count, and bit-identical to a
/// from-scratch analysis of each changed design.
///
/// A scenario that fails (invalid rewire, off-die move, ...) reports its
/// error instead of poisoning the batch.

#pragma once

#include <span>
#include <string>
#include <variant>
#include <vector>

#include "hssta/exec/executor.hpp"
#include "hssta/incr/design_state.hpp"

namespace hssta::incr {

/// Swap instance `inst`'s model for `model`.
struct ReplaceModule {
  size_t inst = 0;
  std::shared_ptr<const model::TimingModel> model;
};

/// Move instance `inst` to a new origin.
struct MoveInstance {
  size_t inst = 0;
  double x = 0.0;
  double y = 0.0;
};

/// Re-route connection `conn` to new endpoints.
struct RewireConnection {
  size_t conn = 0;
  hier::PortRef from_output;
  hier::PortRef to_input;
};

/// Scale parameter `param`'s correlated sensitivity by `scale`.
struct SigmaScale {
  size_t param = 0;
  double scale = 1.0;
};

using Change =
    std::variant<ReplaceModule, MoveInstance, RewireConnection, SigmaScale>;

struct Scenario {
  std::string label;
  std::vector<Change> changes;
};

struct ScenarioResult {
  std::string label;
  /// Position of the scenario in the submitted batch (set by the runner),
  /// so an error can be traced back to the originating scenario even when
  /// labels collide or are empty.
  size_t index = 0;
  /// describe_changes() of the scenario's change list (set by the runner).
  /// Error payloads carry it next to the exception text, so a failed
  /// what-if names the change that caused it, not just the symptom.
  std::string changes;
  /// scenario_fingerprint() of (base design, change list) — the stable
  /// identity the campaign layer keys shards by (set by the runner). A
  /// one-shot sweep result and a campaign shard for the same base + changes
  /// carry the same value, so reports can be joined across runs.
  uint64_t fingerprint = 0;
  /// The design delay under the scenario (valid when ok()).
  timing::CanonicalForm delay;
  IncrementalStats stats;
  double seconds = 0.0;
  std::string error;  ///< non-empty when the scenario threw

  [[nodiscard]] bool ok() const { return error.empty(); }
};

/// Apply one change to a state (the dispatch ScenarioRunner uses; exposed
/// for callers driving a DesignState from parsed change lists).
void apply_change(DesignState& state, const Change& change);

/// Human-readable one-line description of a change ("swap u1 -> c1908_v2",
/// "move u0 to (3, 0)", "rewire c2 to u0.o1:u1.i0", "sigma p0 x1.2") —
/// used by scenario error payloads and server logs.
[[nodiscard]] std::string describe_change(const Change& change);
/// "; "-joined describe_change() over a change list.
[[nodiscard]] std::string describe_changes(std::span<const Change> changes);

/// Stable identity of a what-if: util::Fnv1a over the base design's
/// state_fingerprint() and the structural content of every change (swapped
/// models hash by model_fingerprint(), i.e. by content, not by pointer or
/// file path; the value is cached in the model, so swapping copies of one
/// parsed model costs no serialization). Campaign shards are named by
/// this value; resume skips a scenario exactly when its fingerprint
/// already has a shard.
[[nodiscard]] uint64_t scenario_fingerprint(uint64_t base_fingerprint,
                                            std::span<const Change> changes);

class ScenarioRunner {
 public:
  /// `base` must have no pending changes (analyze() it first) and must
  /// outlive the runner.
  explicit ScenarioRunner(const DesignState& base);

  /// Run every scenario, fanning out across `ex`. Results are positionally
  /// matched to the scenarios and independent of the executor.
  [[nodiscard]] std::vector<ScenarioResult> run(
      std::span<const Scenario> scenarios,
      exec::Executor& ex = exec::serial()) const;

  /// state_fingerprint() of the base, computed once at construction; the
  /// runner combines it with each scenario's change list to stamp
  /// ScenarioResult::fingerprint.
  [[nodiscard]] uint64_t base_fingerprint() const { return base_fp_; }

 private:
  const DesignState* base_;
  uint64_t base_fp_ = 0;
};

}  // namespace hssta::incr
