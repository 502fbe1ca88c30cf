/// \file check.hpp
/// hssta::check — rule-based static design diagnostics (lint) over the
/// representations designs enter the system as: a gate-level Netlist, a
/// bare TimingGraph, a pre-characterized TimingModel, and a stitched
/// hierarchical design. No timing is run; every rule is a structural or
/// numeric scan.
///
/// Each rule has a stable ID (HSC###), a default severity, a precise
/// location (gate/net/port/instance name) and a fix hint, so bad designs
/// are rejected up front with machine-readable diagnostics instead of
/// surfacing as deep exceptions (or silently wrong numbers) inside
/// analyze(), serve or a campaign. Rule IDs are append-only: a shipped ID
/// never changes meaning. See docs/CHECKS.md for the catalog.
///
/// Severities can be overridden per rule through CheckOptions (fed from the
/// flow::Config `check.HSC### = warn|error|info|off` table); kOff
/// suppresses the rule entirely.
///
/// Determinism: diagnostics are emitted in a fixed order (rule family, then
/// object index) regardless of thread count; the hierarchical entry point
/// fans per-instance work over an exec::Executor and merges by instance
/// index.

#pragma once

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "hssta/check/severity.hpp"
#include "hssta/exec/executor.hpp"
#include "hssta/hier/design.hpp"
#include "hssta/hier/hier_ssta.hpp"
#include "hssta/model/timing_model.hpp"
#include "hssta/netlist/netlist.hpp"
#include "hssta/timing/graph.hpp"

namespace hssta::util {
class JsonWriter;
}

namespace hssta::check {

/// One emitted diagnostic.
struct Diagnostic {
  std::string id;        ///< stable rule id, e.g. "HSC002"
  Severity severity = Severity::kWarning;  ///< after overrides
  std::string object;    ///< gate/net/port/instance/model name
  std::string message;   ///< what is wrong, with the precise location
  std::string hint;      ///< how to fix it
};

/// Static catalog entry for one rule.
struct RuleInfo {
  std::string_view id;
  Severity default_severity = Severity::kWarning;
  std::string_view family;   ///< "structural" | "numeric" | "hierarchy" |
                             ///< "sequential"
  std::string_view meaning;  ///< one-line description
  std::string_view hint;     ///< generic fix hint
};

/// All shipped rules, ordered by id.
[[nodiscard]] std::span<const RuleInfo> rule_catalog();

/// Catalog lookup; nullptr for an unknown id.
[[nodiscard]] const RuleInfo* find_rule(std::string_view id);

/// Knobs for one checker run.
struct CheckOptions {
  /// Per-rule severity overrides (Severity::kOff suppresses the rule).
  /// Unknown ids are rejected where the table is built (config parsing),
  /// not here.
  SeverityMap severity;
};

/// The result of one checker run.
struct Report {
  std::string subject;                  ///< what was checked (design name)
  std::vector<Diagnostic> diagnostics;  ///< deterministic order
  size_t instances_checked = 0;         ///< hierarchy runs only

  /// Worst severity present; Severity::kOff when clean.
  [[nodiscard]] Severity worst() const;
  [[nodiscard]] size_t count(Severity s) const;
  [[nodiscard]] bool has(std::string_view id) const;
  [[nodiscard]] bool clean() const { return diagnostics.empty(); }
  /// Human-readable multi-line summary ("error HSC002 net 'x': ...").
  [[nodiscard]] std::string summary() const;
};

/// Merge another report's diagnostics into `into` (subject kept).
void merge(Report& into, Report&& from);

/// Structural netlist lint: cycles (with the cycle path printed), undriven
/// nets, zero-fanout gates, duplicate fanin pins, cones unreachable from
/// any PI or reaching no PO, port anomalies, gate arity. Never throws on a
/// bad netlist — that is the point.
[[nodiscard]] Report run_checks(const netlist::Netlist& nl,
                                const CheckOptions& options = {});

/// Numeric lint over a timing graph and its variation space (if any):
/// NaN/Inf/negative delays and sigmas, non-finite canonical-form
/// coefficients, degenerate covariance/PCA dimensions, bad parameter
/// configuration. `subject` names the graph in diagnostics.
[[nodiscard]] Report run_checks(const timing::TimingGraph& graph,
                                const std::string& subject,
                                const CheckOptions& options = {});

/// Model lint: the graph/space checks plus model boundary consistency
/// (port-table and boundary-vector arity).
[[nodiscard]] Report run_checks(const model::TimingModel& model,
                                const CheckOptions& options = {});

/// Hierarchical design lint: connection endpoints, multiply-driven and
/// floating instance inputs, model<->instance port arity/order at stitch
/// boundaries, sigma_scale length, off-die instances, cross-instance
/// variation-space disagreement — plus the model checks for every distinct
/// model, fanned per-instance over `ex`. Does not require the design to
/// pass HierDesign::validate().
[[nodiscard]] Report run_checks(const hier::HierDesign& design,
                                const hier::HierOptions& hier_options,
                                const CheckOptions& options = {},
                                exec::Executor& ex = exec::serial());

/// JSON form of a report (util::JsonWriter; schema pinned in report_test):
/// {"subject":...,"worst":...,"errors":N,"warnings":N,"infos":N,
///  "instances":N,"diagnostics":[{"id","severity","object","message",
///  "hint"},...]}
[[nodiscard]] std::string report_json(const Report& report);

/// Emit the same report object into an open writer (the embeddable form of
/// report_json; the serve layer uses it to nest reports in responses).
void write_report(util::JsonWriter& w, const Report& report);

/// Process exit code for CLI/CI gating: 2 if any error, 1 if any warning,
/// 0 when clean or info-only.
[[nodiscard]] int exit_code(const Report& report);

}  // namespace hssta::check
