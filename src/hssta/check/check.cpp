#include "hssta/check/check.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "hssta/exec/executor.hpp"
#include "hssta/library/cell.hpp"
#include "hssta/util/error.hpp"
#include "hssta/util/json.hpp"

namespace hssta::check {

namespace {

using netlist::GateId;
using netlist::kNoGate;
using netlist::NetId;

/// --- severity names --------------------------------------------------------

constexpr const char* kSeverityNames[] = {"off", "info", "warning", "error"};

/// --- rule catalog ----------------------------------------------------------
/// Append-only; a shipped id never changes meaning. Keep docs/CHECKS.md in
/// sync (check_test pins the catalog against the doc).

constexpr RuleInfo kCatalog[] = {
    // structural (netlist)
    {"HSC001", Severity::kError, "structural",
     "combinational cycle (the cycle path is printed)",
     "break the feedback loop; combinational netlists must be acyclic"},
    {"HSC002", Severity::kError, "structural",
     "net has no driver and is not a primary input",
     "drive the net with a gate or declare it INPUT"},
    {"HSC003", Severity::kWarning, "structural",
     "gate output drives nothing and is not a primary output",
     "remove the dead gate or mark its output net OUTPUT"},
    {"HSC004", Severity::kWarning, "structural",
     "gate has the same net on more than one input pin",
     "deduplicate the fanin list; repeated pins distort load and depth"},
    {"HSC005", Severity::kWarning, "structural",
     "gate is unreachable from every primary input",
     "connect the cone to a primary input or remove it"},
    {"HSC006", Severity::kWarning, "structural",
     "gate has fanout but reaches no primary output",
     "mark a primary output in the cone or remove it"},
    {"HSC007", Severity::kWarning, "structural",
     "port anomaly: net marked both input and output, or duplicate "
     "net/gate names",
     "rename the duplicates; insert a buffer for input-to-output feedthrough"},
    {"HSC008", Severity::kError, "structural",
     "netlist has no primary inputs or no primary outputs",
     "declare at least one INPUT and one OUTPUT"},
    {"HSC009", Severity::kError, "structural",
     "gate fanin count does not match its cell type arity",
     "fix the gate's pin list or use a cell of matching arity"},
    {"HSC010", Severity::kInfo, "structural",
     "primary input drives nothing",
     "remove the unused input or connect it"},
    // numeric (graph / model / variation space)
    {"HSC020", Severity::kError, "numeric",
     "non-finite delay: NaN or Inf in a nominal, coefficient or random part",
     "re-extract the model; non-finite forms poison every downstream max"},
    {"HSC021", Severity::kWarning, "numeric",
     "negative nominal delay",
     "check the cell characterization; negative delays break path ordering"},
    {"HSC022", Severity::kWarning, "numeric",
     "negative random (independent) sigma on a delay",
     "sigmas are magnitudes; re-derive the random part as a non-negative rss"},
    {"HSC023", Severity::kError, "numeric",
     "degenerate variation space: no parameters, zero retained PCA "
     "components, non-finite eigenvalue, or space/graph dimension mismatch",
     "revisit the pca/parameter configuration; the canonical forms have no "
     "usable coordinate system"},
    {"HSC024", Severity::kWarning, "numeric",
     "bad process-parameter configuration: non-positive or non-finite "
     "sigma, or variance fractions that do not sum to 1",
     "fix the parameter table; fractions must be non-negative and sum to 1"},
    // hierarchy (stitched design)
    {"HSC040", Severity::kError, "hierarchy",
     "connection or port endpoint does not exist (instance or port index "
     "out of range, or instance without a model)",
     "fix the endpoint indices against the model's port lists"},
    {"HSC041", Severity::kError, "hierarchy",
     "instance input driven more than once",
     "every instance input must have exactly one driver; drop the extras"},
    {"HSC042", Severity::kWarning, "hierarchy",
     "floating instance input or primary input without sinks",
     "connect the port or expose it as a design primary input"},
    {"HSC043", Severity::kError, "hierarchy",
     "model/instance port arity or order mismatch at a stitch boundary",
     "re-extract the model from the instance's netlist; ports must match "
     "in count and order"},
    {"HSC044", Severity::kError, "hierarchy",
     "param_sigma_scale length does not match the parameter count",
     "provide one scale per process parameter (or an empty list)"},
    {"HSC045", Severity::kError, "hierarchy",
     "instance extends beyond the design die",
     "move the instance or enlarge the die"},
    {"HSC046", Severity::kError, "hierarchy",
     "instances disagree on variation configuration, or a model's PCA is "
     "inconsistent with its grid partition",
     "extract every model under one parameter set and grid policy"},
    {"HSC047", Severity::kError, "hierarchy",
     "empty design: no instances, no primary inputs or no primary outputs",
     "a design needs at least one instance, input and output"},
    // sequential (registers)
    {"HSC048", Severity::kError, "sequential",
     "register data or clock net is undriven",
     "drive the register's data input (and its clock, when one is named) "
     "with a gate or a primary input"},
    {"HSC049", Severity::kError, "sequential",
     "combinational cycle through a latch-free path",
     "break the loop with a register; only register-broken feedback is "
     "analyzable"},
    {"HSC050", Severity::kWarning, "sequential",
     "register output never reaches a primary output",
     "observe the register's state through some primary output, or remove "
     "the register"},
};

/// Routes raw findings through the severity-override table into a Report.
class Emitter {
 public:
  Emitter(const CheckOptions& options, Report& report)
      : options_(options), report_(report) {}

  void emit(std::string_view id, std::string object, std::string message) {
    const RuleInfo* info = find_rule(id);
    HSSTA_ASSERT(info != nullptr, "unknown check rule id emitted");
    Severity sev = info->default_severity;
    if (const auto it = options_.severity.find(id);
        it != options_.severity.end())
      sev = it->second;
    if (sev == Severity::kOff) return;
    report_.diagnostics.push_back(Diagnostic{std::string(id), sev,
                                             std::move(object),
                                             std::move(message),
                                             std::string(info->hint)});
  }

 private:
  const CheckOptions& options_;
  Report& report_;
};

std::string quoted(const std::string& s) { return "'" + s + "'"; }

/// --- structural netlist rules ---------------------------------------------

/// Kahn's algorithm over the gate-dependency graph; returns per-gate
/// resolved flags (false = on or downstream of a cycle). Mirrors
/// Netlist::topological_order but reports instead of throwing.
std::vector<uint8_t> kahn_resolved(const netlist::Netlist& nl) {
  const size_t ng = nl.num_gates();
  std::vector<uint32_t> pending(ng, 0);
  for (GateId g = 0; g < ng; ++g)
    for (const NetId f : nl.gate(g).fanins)
      if (nl.driver(f) != kNoGate) ++pending[g];
  const auto& sinks = nl.net_sinks();
  std::vector<GateId> queue;
  queue.reserve(ng);
  for (GateId g = 0; g < ng; ++g)
    if (pending[g] == 0) queue.push_back(g);
  std::vector<uint8_t> resolved(ng, 0);
  for (size_t head = 0; head < queue.size(); ++head) {
    const GateId g = queue[head];
    resolved[g] = 1;
    for (const GateId s : sinks[nl.gate(g).output])
      if (--pending[s] == 0) queue.push_back(s);
  }
  return resolved;
}

/// Extract one cycle from the unresolved region: walk fanin drivers that
/// are themselves unresolved until a gate repeats. Deterministic (lowest
/// unresolved gate id first, first unresolved fanin driver at each step).
std::vector<GateId> extract_cycle(const netlist::Netlist& nl,
                                  const std::vector<uint8_t>& resolved) {
  GateId start = kNoGate;
  for (GateId g = 0; g < nl.num_gates(); ++g)
    if (!resolved[g]) {
      start = g;
      break;
    }
  if (start == kNoGate) return {};
  std::vector<GateId> walk;
  std::vector<uint32_t> pos(nl.num_gates(),
                            std::numeric_limits<uint32_t>::max());
  GateId cur = start;
  while (pos[cur] == std::numeric_limits<uint32_t>::max()) {
    pos[cur] = static_cast<uint32_t>(walk.size());
    walk.push_back(cur);
    GateId next = kNoGate;
    for (const NetId f : nl.gate(cur).fanins) {
      const GateId drv = nl.driver(f);
      if (drv != kNoGate && !resolved[drv]) {
        next = drv;
        break;
      }
    }
    // Every unresolved gate keeps at least one unresolved fanin driver.
    HSSTA_ASSERT(next != kNoGate, "unresolved gate without unresolved fanin");
    cur = next;
  }
  return {walk.begin() + pos[cur], walk.end()};
}

void check_netlist(Emitter& e, const netlist::Netlist& nl) {
  const size_t nn = nl.num_nets();
  const size_t ng = nl.num_gates();
  const auto& sinks = nl.net_sinks();

  // Register pin usage per net: data captures and clock uses make a net
  // "consumed" for the dead-logic rules, and register outputs are driven
  // (by the flop) for the driver rules.
  std::vector<uint8_t> reg_data(nn, 0);
  std::vector<uint8_t> reg_clock(nn, 0);
  for (const netlist::Register& r : nl.registers()) {
    reg_data[r.data_in] = 1;
    if (r.clock != netlist::kNoNet) reg_clock[r.clock] = 1;
  }
  const auto net_driven = [&](NetId n) {
    return nl.is_primary_input(n) || nl.driver(n) != kNoGate ||
           nl.is_register_output(n);
  };

  // HSC008: missing ports.
  if (nl.primary_inputs().empty())
    e.emit("HSC008", nl.name(), "netlist has no primary inputs");
  if (nl.primary_outputs().empty())
    e.emit("HSC008", nl.name(), "netlist has no primary outputs");

  // HSC001/HSC049: combinational cycles, with one cycle path printed. A
  // register's data_in and data_out are distinct nets, so any cycle in the
  // gate graph of a sequential netlist is by construction latch-free —
  // that is the sequential rule's finding.
  const std::vector<uint8_t> resolved = kahn_resolved(nl);
  const size_t stuck = static_cast<size_t>(
      std::count(resolved.begin(), resolved.end(), uint8_t{0}));
  if (stuck > 0) {
    const std::vector<GateId> cycle = extract_cycle(nl, resolved);
    std::ostringstream path;
    for (const GateId g : cycle) path << nl.gate(g).name << " -> ";
    path << nl.gate(cycle.front()).name;
    const std::string tail = path.str() + " (" + std::to_string(stuck) +
                             " gate(s) on or downstream of cycles)";
    if (nl.is_sequential())
      e.emit("HSC049", nl.gate(cycle.front()).name,
             "combinational cycle through a latch-free path: " + tail);
    else
      e.emit("HSC001", nl.gate(cycle.front()).name,
             "combinational cycle: " + tail);
  }

  // HSC002: undriven nets. Register outputs are driven by their flop; a
  // net used *only* as a register clock is HSC048's finding (reported with
  // the register for context, not once per net).
  for (NetId n = 0; n < nn; ++n) {
    if (net_driven(n)) continue;
    if (reg_clock[n] && !reg_data[n] && sinks[n].empty() &&
        !nl.is_primary_output(n))
      continue;
    e.emit("HSC002", nl.net_name(n),
           "net " + quoted(nl.net_name(n)) +
               " has no driver and is not a primary input");
  }

  // HSC048: registers with undriven data or clock nets.
  for (const netlist::Register& r : nl.registers()) {
    if (!net_driven(r.data_in))
      e.emit("HSC048", r.name,
             "register " + quoted(r.name) + " data net " +
                 quoted(nl.net_name(r.data_in)) + " is undriven");
    if (r.clock != netlist::kNoNet && !net_driven(r.clock))
      e.emit("HSC048", r.name,
             "register " + quoted(r.name) + " clock net " +
                 quoted(nl.net_name(r.clock)) + " is undriven");
  }

  // Per-gate scans: HSC009 arity, HSC004 duplicate fanins, HSC003 dead
  // outputs.
  for (GateId g = 0; g < ng; ++g) {
    const netlist::Gate& gate = nl.gate(g);
    if (gate.type == nullptr) {
      e.emit("HSC009", gate.name,
             "gate " + quoted(gate.name) + " has no cell type");
    } else if (gate.fanins.size() != gate.type->num_inputs) {
      e.emit("HSC009", gate.name,
             "gate " + quoted(gate.name) + " has " +
                 std::to_string(gate.fanins.size()) + " fanin(s) but cell " +
                 quoted(gate.type->name) + " expects " +
                 std::to_string(gate.type->num_inputs));
    }
    std::vector<NetId> fanins = gate.fanins;
    std::sort(fanins.begin(), fanins.end());
    const auto dup = std::adjacent_find(fanins.begin(), fanins.end());
    if (dup != fanins.end())
      e.emit("HSC004", gate.name,
             "gate " + quoted(gate.name) + " has net " +
                 quoted(nl.net_name(*dup)) + " on more than one input pin");
    if (sinks[gate.output].empty() && !nl.is_primary_output(gate.output) &&
        !reg_data[gate.output] && !reg_clock[gate.output])
      e.emit("HSC003", gate.name,
             "gate " + quoted(gate.name) + " output net " +
                 quoted(nl.net_name(gate.output)) +
                 " drives nothing and is not a primary output");
  }

  // Forward reachability from the launch points — primary inputs plus
  // register outputs (a flop launches its cone every cycle) — for HSC005.
  std::vector<uint8_t> net_fwd(nn, 0);
  std::vector<uint8_t> gate_fwd(ng, 0);
  {
    std::vector<NetId> queue;
    const auto seed = [&](NetId n) {
      if (!net_fwd[n]) {
        net_fwd[n] = 1;
        queue.push_back(n);
      }
    };
    for (const NetId n : nl.primary_inputs()) seed(n);
    for (const netlist::Register& r : nl.registers()) seed(r.data_out);
    for (size_t head = 0; head < queue.size(); ++head)
      for (const GateId g : sinks[queue[head]])
        if (!gate_fwd[g]) {
          gate_fwd[g] = 1;
          const NetId out = nl.gate(g).output;
          if (!net_fwd[out]) {
            net_fwd[out] = 1;
            queue.push_back(out);
          }
        }
  }
  for (GateId g = 0; g < ng; ++g)
    if (!gate_fwd[g])
      e.emit("HSC005", nl.gate(g).name,
             "gate " + quoted(nl.gate(g).name) +
                 " is unreachable from every primary input");

  // Backward reachability from the primary outputs for HSC006 (gates that
  // have fanout; fanout-free gates are HSC003's). The walk crosses
  // registers — an observed flop observes its data cone and its clock —
  // so state-holding logic does not read as dead.
  std::vector<uint8_t> net_bwd(nn, 0);
  std::vector<uint8_t> gate_bwd(ng, 0);
  {
    std::vector<NetId> queue;
    const auto seed = [&](NetId n) {
      if (!net_bwd[n]) {
        net_bwd[n] = 1;
        queue.push_back(n);
      }
    };
    for (const NetId n : nl.primary_outputs()) seed(n);
    for (size_t head = 0; head < queue.size(); ++head) {
      const NetId n = queue[head];
      const GateId g = nl.driver(n);
      if (g != kNoGate && !gate_bwd[g]) {
        gate_bwd[g] = 1;
        for (const NetId f : nl.gate(g).fanins) seed(f);
      }
      if (const netlist::RegId r = nl.register_driver(n);
          r != netlist::kNoReg) {
        seed(nl.reg(r).data_in);
        if (nl.reg(r).clock != netlist::kNoNet) seed(nl.reg(r).clock);
      }
    }
  }
  for (GateId g = 0; g < ng; ++g)
    if (!gate_bwd[g] && !sinks[nl.gate(g).output].empty())
      e.emit("HSC006", nl.gate(g).name,
             "gate " + quoted(nl.gate(g).name) +
                 " has fanout but reaches no primary output");

  // HSC050: registers whose state is never observable at a primary output
  // (their data_out is not on any backward-reachable path).
  for (const netlist::Register& r : nl.registers())
    if (!net_bwd[r.data_out])
      e.emit("HSC050", r.name,
             "register " + quoted(r.name) + " output net " +
                 quoted(nl.net_name(r.data_out)) +
                 " never reaches a primary output");

  // HSC007: port anomalies — PI marked PO, duplicate net/gate names.
  for (NetId n = 0; n < nn; ++n)
    if (nl.is_primary_input(n) && nl.is_primary_output(n))
      e.emit("HSC007", nl.net_name(n),
             "net " + quoted(nl.net_name(n)) +
                 " is marked both primary input and primary output");
  {
    std::map<std::string_view, size_t> net_names;
    for (NetId n = 0; n < nn; ++n) ++net_names[nl.net_name(n)];
    for (const auto& [name, count] : net_names)
      if (count > 1)
        e.emit("HSC007", std::string(name),
               std::to_string(count) + " nets share the name " +
                   quoted(std::string(name)));
    std::map<std::string_view, size_t> gate_names;
    for (GateId g = 0; g < ng; ++g) ++gate_names[nl.gate(g).name];
    for (const auto& [name, count] : gate_names)
      if (count > 1)
        e.emit("HSC007", std::string(name),
               std::to_string(count) + " gates share the name " +
                   quoted(std::string(name)));
  }

  // HSC010: unused primary inputs (feeding a register's data or clock pin
  // counts as use).
  for (const NetId n : nl.primary_inputs())
    if (sinks[n].empty() && !nl.is_primary_output(n) && !reg_data[n] &&
        !reg_clock[n])
      e.emit("HSC010", nl.net_name(n),
             "primary input " + quoted(nl.net_name(n)) + " drives nothing");
}

/// --- numeric rules ---------------------------------------------------------

/// Scan the live edges of a graph for non-finite / negative delay forms.
/// `where` prefixes the diagnostic object ("" or "model 'm' ").
void scan_graph(Emitter& e, const timing::TimingGraph& g,
                const std::string& where) {
  for (timing::EdgeId i = 0; i < g.num_edge_slots(); ++i) {
    if (!g.edge_alive(i)) continue;
    const timing::TimingEdge& ed = g.edge(i);
    const std::string loc = where + "edge " + g.vertex(ed.from).name +
                            " -> " + g.vertex(ed.to).name;
    const timing::CanonicalForm& d = ed.delay;
    bool finite = std::isfinite(d.nominal()) && std::isfinite(d.random());
    for (const double c : d.corr()) finite = finite && std::isfinite(c);
    if (!finite) {
      e.emit("HSC020", loc,
             loc + " has a non-finite delay (NaN or Inf in the nominal, a "
                   "coefficient, or the random part)");
      continue;  // negative checks are meaningless on NaN
    }
    if (d.nominal() < 0.0)
      e.emit("HSC021", loc, loc + " has negative nominal delay " +
                                std::to_string(d.nominal()));
    if (d.random() < 0.0)
      e.emit("HSC022", loc, loc + " has negative random sigma " +
                                std::to_string(d.random()));
  }
}

/// Variation-space and parameter-table sanity. `graph_dim` is the
/// coefficient dimension the forms actually use.
void scan_space(Emitter& e, const variation::VariationSpace& s,
                size_t graph_dim, const std::string& where) {
  if (s.num_params() == 0)
    e.emit("HSC023", where, where + ": variation space has no parameters");
  else if (s.num_components() == 0)
    e.emit("HSC023", where,
           where + ": PCA retained zero spatial components (explained " +
               std::to_string(s.pca().explained) + ")");
  if (graph_dim != s.dim())
    e.emit("HSC023", where,
           where + ": graph coefficient dimension " +
               std::to_string(graph_dim) + " != space dimension " +
               std::to_string(s.dim()));
  for (size_t k = 0; k < s.pca().eigenvalues.size(); ++k)
    if (!std::isfinite(s.pca().eigenvalues[k])) {
      e.emit("HSC023", where,
             where + ": PCA eigenvalue " + std::to_string(k) +
                 " is non-finite");
      break;
    }
  const variation::ParameterSet& ps = s.parameters();
  for (size_t p = 0; p < ps.size(); ++p) {
    const variation::ProcessParameter& pp = ps.at(p);
    if (!std::isfinite(pp.sigma_rel) || pp.sigma_rel <= 0.0)
      e.emit("HSC024", pp.name,
             where + ": parameter " + quoted(pp.name) +
                 " has non-positive or non-finite sigma " +
                 std::to_string(pp.sigma_rel));
    const double sum = pp.global_frac + pp.local_frac + pp.random_frac;
    if (pp.global_frac < 0.0 || pp.local_frac < 0.0 || pp.random_frac < 0.0 ||
        !std::isfinite(sum) || std::abs(sum - 1.0) > 1e-9)
      e.emit("HSC024", pp.name,
             where + ": parameter " + quoted(pp.name) +
                 " variance fractions sum to " + std::to_string(sum) +
                 " (need non-negative fractions summing to 1)");
  }
  if (!std::isfinite(ps.load_sigma_rel) || ps.load_sigma_rel < 0.0)
    e.emit("HSC024", where,
           where + ": load_sigma_rel " + std::to_string(ps.load_sigma_rel) +
               " is negative or non-finite");
}

/// Full model scan: graph numerics, space sanity, boundary-vector arity.
void check_model(Emitter& e, const model::TimingModel& m,
                 const std::string& where) {
  scan_graph(e, m.graph(), where);
  if (m.variation().space == nullptr) {
    e.emit("HSC023", where, where + ": model has no variation space");
  } else {
    scan_space(e, *m.variation().space, m.graph().dim(), where);
    // PCA/grid incompatibility: the loading matrix must have one row per
    // grid of the module's partition.
    const linalg::PcaResult& pca = m.variation().space->pca();
    if (pca.loadings.rows() != m.variation().space->num_grids())
      e.emit("HSC046", where,
             where + ": PCA loading matrix has " +
                 std::to_string(pca.loadings.rows()) + " rows for " +
                 std::to_string(m.variation().space->num_grids()) +
                 " grids");
  }
  const size_t ni = m.graph().inputs().size();
  const size_t no = m.graph().outputs().size();
  if (!m.boundary().input_cap.empty() && m.boundary().input_cap.size() != ni)
    e.emit("HSC043", where,
           where + ": boundary input_cap has " +
               std::to_string(m.boundary().input_cap.size()) +
               " entries for " + std::to_string(ni) + " input ports");
  if (!m.boundary().output_drive_res.empty() &&
      m.boundary().output_drive_res.size() != no)
    e.emit("HSC043", where,
           where + ": boundary output_drive_res has " +
               std::to_string(m.boundary().output_drive_res.size()) +
               " entries for " + std::to_string(no) + " output ports");
}

/// --- hierarchy rules --------------------------------------------------------

/// Per-instance pass (parallelized): off-die placement, netlist<->model
/// stitch-boundary agreement, and — on the first instance using each
/// distinct model — the model scan and the sigma_scale arity check.
void check_instance(Emitter& e, const hier::HierDesign& d, size_t i,
                    const hier::HierOptions& hopts, bool owns_model) {
  const hier::ModuleInstance& inst = d.instances()[i];
  const std::string iname =
      inst.name.empty() ? "#" + std::to_string(i) : inst.name;
  if (inst.model == nullptr) {
    e.emit("HSC040", iname,
           "instance " + quoted(iname) + " has no timing model");
    return;
  }
  const model::TimingModel& m = *inst.model;

  // HSC045: instance footprint inside the design die (same 1e-9 tolerance
  // as HierDesign::validate).
  constexpr double kTol = 1e-9;
  const placement::Die& die = d.die();
  const placement::Die& mdie = m.die();
  if (inst.origin.x < -kTol || inst.origin.y < -kTol ||
      inst.origin.x + mdie.width > die.width + kTol ||
      inst.origin.y + mdie.height > die.height + kTol)
    e.emit("HSC045", iname,
           "instance " + quoted(iname) + " at (" +
               std::to_string(inst.origin.x) + ", " +
               std::to_string(inst.origin.y) + ") with die " +
               std::to_string(mdie.width) + " x " +
               std::to_string(mdie.height) +
               " extends beyond the design die " +
               std::to_string(die.width) + " x " +
               std::to_string(die.height));

  // HSC043: the stitch boundary — a netlist-backed instance must agree
  // with its model in port count *and* order.
  if (inst.netlist != nullptr) {
    const netlist::Netlist& nl = *inst.netlist;
    const size_t ni = m.graph().inputs().size();
    const size_t no = m.graph().outputs().size();
    if (nl.primary_inputs().size() != ni) {
      e.emit("HSC043", iname,
             "instance " + quoted(iname) + " netlist has " +
                 std::to_string(nl.primary_inputs().size()) +
                 " primary inputs but model " + quoted(m.name()) + " has " +
                 std::to_string(ni) + " input ports");
    } else {
      const std::vector<std::string> names = m.input_names();
      for (size_t k = 0; k < ni; ++k)
        if (nl.net_name(nl.primary_inputs()[k]) != names[k]) {
          e.emit("HSC043", iname,
                 "instance " + quoted(iname) + " input port " +
                     std::to_string(k) + " is " +
                     quoted(nl.net_name(nl.primary_inputs()[k])) +
                     " in the netlist but " + quoted(names[k]) +
                     " in model " + quoted(m.name()));
          break;
        }
    }
    // Outputs are matched positionally only: model reduction may merge a
    // primary-output vertex into its upstream driver, so an extracted
    // model's output names legitimately differ from the netlist's PO net
    // names. Input vertices are boundary ports and keep their names.
    if (nl.primary_outputs().size() != no)
      e.emit("HSC043", iname,
             "instance " + quoted(iname) + " netlist has " +
                 std::to_string(nl.primary_outputs().size()) +
                 " primary outputs but model " + quoted(m.name()) +
                 " has " + std::to_string(no) + " output ports");
    if (inst.module_placement == nullptr)
      e.emit("HSC043", iname,
             "instance " + quoted(iname) +
                 " carries a netlist but no module placement (flattening "
                 "and load-aware stitching need both)");
  }

  // Model-level findings are emitted once, by the first instance that uses
  // each distinct model.
  if (owns_model) {
    const std::string where = "model " + quoted(m.name());
    if (!hopts.param_sigma_scale.empty() && m.variation().space != nullptr &&
        hopts.param_sigma_scale.size() !=
            m.variation().space->num_params())
      e.emit("HSC044", m.name(),
             where + ": param_sigma_scale has " +
                 std::to_string(hopts.param_sigma_scale.size()) +
                 " entries for " +
                 std::to_string(m.variation().space->num_params()) +
                 " process parameters");
    check_model(e, m, where);
  }
}

/// Serial design-level pass: endpoint existence, driver counting,
/// cross-instance variation agreement.
void check_design_level(Emitter& e, const hier::HierDesign& d) {
  const auto& insts = d.instances();
  const size_t n = insts.size();

  if (insts.empty())
    e.emit("HSC047", d.name(), "design has no instances");
  if (d.primary_inputs().empty())
    e.emit("HSC047", d.name(), "design has no primary inputs");
  if (d.primary_outputs().empty())
    e.emit("HSC047", d.name(), "design has no primary outputs");

  const auto inst_name = [&](size_t i) {
    if (!insts[i].name.empty()) return insts[i].name;
    const std::string index = std::to_string(i);
    return "#" + index;
  };
  const auto in_count = [&](size_t i) -> size_t {
    return insts[i].model ? insts[i].model->graph().inputs().size() : 0;
  };
  const auto out_count = [&](size_t i) -> size_t {
    return insts[i].model ? insts[i].model->graph().outputs().size() : 0;
  };
  // Validate one endpoint; returns true when it is usable for driver
  // accounting.
  const auto check_ref = [&](const hier::PortRef& ref, bool is_input,
                             const std::string& what) {
    if (ref.instance >= n) {
      e.emit("HSC040", what,
             what + " references instance " + std::to_string(ref.instance) +
                 " but the design has " + std::to_string(n) + " instances");
      return false;
    }
    const size_t ports = is_input ? in_count(ref.instance)
                                  : out_count(ref.instance);
    if (ref.port >= ports) {
      e.emit("HSC040", what,
             what + " references " +
                 (is_input ? std::string("input") : std::string("output")) +
                 " port " + std::to_string(ref.port) + " of instance " +
                 quoted(inst_name(ref.instance)) + " which has " +
                 std::to_string(ports) +
                 (is_input ? " input ports" : " output ports"));
      return false;
    }
    return true;
  };

  // Driver accounting over valid endpoints.
  std::vector<std::vector<uint32_t>> driven(n);
  for (size_t i = 0; i < n; ++i) driven[i].assign(in_count(i), 0);

  for (size_t c = 0; c < d.connections().size(); ++c) {
    const hier::Connection& con = d.connections()[c];
    const std::string what = "connection " + std::to_string(c);
    (void)check_ref(con.from_output, false, what);
    if (check_ref(con.to_input, true, what))
      ++driven[con.to_input.instance][con.to_input.port];
  }
  for (const hier::PrimaryInput& pi : d.primary_inputs()) {
    const std::string what = "primary input " + quoted(pi.name);
    if (pi.sinks.empty())
      e.emit("HSC042", pi.name, what + " has no sinks");
    for (const hier::PortRef& ref : pi.sinks)
      if (check_ref(ref, true, what)) ++driven[ref.instance][ref.port];
  }
  for (const hier::PrimaryOutput& po : d.primary_outputs())
    (void)check_ref(po.source, false, "primary output " + quoted(po.name));

  for (size_t i = 0; i < n; ++i) {
    const std::vector<std::string> names =
        insts[i].model ? insts[i].model->input_names()
                       : std::vector<std::string>{};
    for (size_t p = 0; p < driven[i].size(); ++p) {
      const std::string port =
          "input " + std::to_string(p) +
          (p < names.size() ? " (" + quoted(names[p]) + ")" : "") +
          " of instance " + quoted(inst_name(i));
      if (driven[i][p] > 1)
        e.emit("HSC041", inst_name(i),
               port + " is driven " + std::to_string(driven[i][p]) +
                   " times");
      else if (driven[i][p] == 0)
        e.emit("HSC042", inst_name(i),
               port +
                   " is driven by no connection and no primary input");
    }
  }

  // HSC046: every model must agree on the process-parameter configuration
  // (the design-level space is built from one parameter set).
  const variation::VariationSpace* ref_space = nullptr;
  std::string ref_model;
  for (size_t i = 0; i < n; ++i) {
    if (insts[i].model == nullptr ||
        insts[i].model->variation().space == nullptr)
      continue;
    const variation::VariationSpace& s = *insts[i].model->variation().space;
    if (ref_space == nullptr) {
      ref_space = &s;
      ref_model = insts[i].model->name();
      continue;
    }
    if (&s == ref_space) continue;
    if (s.num_params() != ref_space->num_params()) {
      e.emit("HSC046", inst_name(i),
             "instance " + quoted(inst_name(i)) + " model " +
                 quoted(insts[i].model->name()) + " has " +
                 std::to_string(s.num_params()) +
                 " process parameters but model " + quoted(ref_model) +
                 " has " + std::to_string(ref_space->num_params()));
      continue;
    }
    for (size_t p = 0; p < s.num_params(); ++p)
      if (s.parameters().at(p).name != ref_space->parameters().at(p).name) {
        e.emit("HSC046", inst_name(i),
               "instance " + quoted(inst_name(i)) + " model " +
                   quoted(insts[i].model->name()) + " parameter " +
                   std::to_string(p) + " is " +
                   quoted(s.parameters().at(p).name) + " but model " +
                   quoted(ref_model) + " has " +
                   quoted(ref_space->parameters().at(p).name));
        break;
      }
  }
}

}  // namespace

/// --- severity ---------------------------------------------------------------

const char* severity_name(Severity s) {
  return kSeverityNames[static_cast<size_t>(s)];
}

Severity severity_from_name(std::string_view name) {
  if (name == "off") return Severity::kOff;
  if (name == "info") return Severity::kInfo;
  if (name == "warning" || name == "warn") return Severity::kWarning;
  if (name == "error") return Severity::kError;
  throw Error("check: unknown severity '" + std::string(name) +
              "' (expected off|info|warning|error)");
}

/// --- catalog ----------------------------------------------------------------

std::span<const RuleInfo> rule_catalog() { return kCatalog; }

const RuleInfo* find_rule(std::string_view id) {
  for (const RuleInfo& r : kCatalog)
    if (r.id == id) return &r;
  return nullptr;
}

/// --- report -----------------------------------------------------------------

Severity Report::worst() const {
  Severity w = Severity::kOff;
  for (const Diagnostic& d : diagnostics) w = std::max(w, d.severity);
  return w;
}

size_t Report::count(Severity s) const {
  size_t c = 0;
  for (const Diagnostic& d : diagnostics) c += d.severity == s ? 1 : 0;
  return c;
}

bool Report::has(std::string_view id) const {
  for (const Diagnostic& d : diagnostics)
    if (d.id == id) return true;
  return false;
}

std::string Report::summary() const {
  std::ostringstream os;
  for (const Diagnostic& d : diagnostics)
    os << severity_name(d.severity) << ' ' << d.id << ' ' << d.object
       << ": " << d.message << '\n';
  return os.str();
}

void merge(Report& into, Report&& from) {
  into.diagnostics.insert(into.diagnostics.end(),
                          std::make_move_iterator(from.diagnostics.begin()),
                          std::make_move_iterator(from.diagnostics.end()));
}

/// --- entry points -----------------------------------------------------------

Report run_checks(const netlist::Netlist& nl, const CheckOptions& options) {
  Report rep;
  rep.subject = nl.name();
  Emitter e(options, rep);
  check_netlist(e, nl);
  return rep;
}

Report run_checks(const timing::TimingGraph& graph, const std::string& subject,
                  const CheckOptions& options) {
  Report rep;
  rep.subject = subject;
  Emitter e(options, rep);
  scan_graph(e, graph, "");
  if (graph.space() != nullptr)
    scan_space(e, *graph.space(), graph.dim(), subject);
  return rep;
}

Report run_checks(const model::TimingModel& model,
                  const CheckOptions& options) {
  Report rep;
  rep.subject = model.name();
  Emitter e(options, rep);
  check_model(e, model, "model " + quoted(model.name()));
  return rep;
}

Report run_checks(const hier::HierDesign& design,
                  const hier::HierOptions& hier_options,
                  const CheckOptions& options, exec::Executor& ex) {
  Report rep;
  rep.subject = design.name();
  const size_t n = design.instances().size();
  rep.instances_checked = n;
  Emitter e(options, rep);

  // Model-level findings belong to the first instance using each model.
  std::vector<uint8_t> owns(n, 0);
  {
    std::map<const model::TimingModel*, size_t> first;
    for (size_t i = 0; i < n; ++i)
      if (design.instances()[i].model != nullptr &&
          first.emplace(design.instances()[i].model, i).second)
        owns[i] = 1;
  }

  // Per-instance pass, fanned over the executor; each slot fills its own
  // report so the merge below is deterministic by instance index.
  std::vector<Report> per(n);
  ex.parallel_for(n, [&](size_t i, size_t) {
    Emitter ei(options, per[i]);
    check_instance(ei, design, i, hier_options, owns[i] != 0);
  });
  for (size_t i = 0; i < n; ++i) merge(rep, std::move(per[i]));

  check_design_level(e, design);
  return rep;
}

/// --- JSON / exit code -------------------------------------------------------

std::string report_json(const Report& report) {
  std::ostringstream os;
  util::JsonWriter w(os);
  write_report(w, report);
  HSSTA_ASSERT(w.complete(), "unbalanced JSON report");
  return os.str();
}

void write_report(util::JsonWriter& w, const Report& report) {
  w.begin_object();
  w.key("subject").value(report.subject);
  const Severity worst = report.worst();
  w.key("worst").value(report.clean() ? "clean" : severity_name(worst));
  w.key("errors").value(report.count(Severity::kError));
  w.key("warnings").value(report.count(Severity::kWarning));
  w.key("infos").value(report.count(Severity::kInfo));
  w.key("instances").value(report.instances_checked);
  w.key("diagnostics").begin_array();
  for (const Diagnostic& d : report.diagnostics) {
    w.begin_object();
    w.key("id").value(d.id);
    w.key("severity").value(severity_name(d.severity));
    w.key("object").value(d.object);
    w.key("message").value(d.message);
    w.key("hint").value(d.hint);
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

int exit_code(const Report& report) {
  switch (report.worst()) {
    case Severity::kError:
      return 2;
    case Severity::kWarning:
      return 1;
    default:
      return 0;
  }
}

}  // namespace hssta::check
