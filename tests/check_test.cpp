// hssta::check tests: one trigger test per rule id, clean-design sweeps
// (ISCAS profiles, seeded random DAGs, seeded synthetic graphs), seeded
// mutation fuzz with per-defect rule closures, severity overrides and the
// catalog/exit-code contract.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "fixtures.hpp"
#include "hssta/check/check.hpp"
#include "hssta/exec/executor.hpp"
#include "hssta/flow/config.hpp"
#include "hssta/library/cell_library.hpp"
#include "hssta/model/timing_model.hpp"
#include "hssta/netlist/generate.hpp"
#include "hssta/netlist/iscas.hpp"
#include "hssta/stats/rng.hpp"
#include "hssta/util/error.hpp"
#include "hssta/variation/space.hpp"
#include "synthetic_graphs.hpp"

namespace hssta {
namespace {

using check::CheckOptions;
using check::Report;
using check::Severity;

const library::CellType& cell(const char* name) {
  return testing::default_lib().get(name);
}

/// The defect closure contract of the mutation fuzz: the injected defect's
/// primary rule must fire, and every fired rule must be the primary or one
/// of the expected knock-on rules.
void expect_within(const Report& rep, std::string_view primary,
                   std::initializer_list<std::string_view> knock_on) {
  EXPECT_TRUE(rep.has(primary)) << "missing " << primary << "\n"
                                << rep.summary();
  for (const check::Diagnostic& d : rep.diagnostics) {
    const bool allowed =
        d.id == primary ||
        std::find(knock_on.begin(), knock_on.end(), d.id) != knock_on.end();
    EXPECT_TRUE(allowed) << "unexpected " << d.id << ": " << d.message;
  }
}

/// a & b -> x, x is PO: passes every structural rule.
netlist::Netlist tiny_clean_netlist() {
  netlist::Netlist nl("tiny");
  const netlist::NetId a = nl.add_primary_input("a");
  const netlist::NetId b = nl.add_primary_input("b");
  const netlist::NetId x = nl.add_net("x");
  nl.add_gate("g1", &cell("AND2"), {a, b}, x);
  nl.mark_primary_output(x);
  return nl;
}

/// One-input one-output model over a 1x1-grid space: `in -> out` with a
/// constant delay. `params`/`pca_opts` let tests craft degenerate spaces.
model::TimingModel tiny_model(const std::string& name,
                              variation::ParameterSet params,
                              linalg::PcaOptions pca_opts = {}) {
  const placement::Die die{10.0, 10.0};
  const variation::GridPartition part(die, 1, 1);
  auto space = std::make_shared<const variation::VariationSpace>(
      std::move(params), part.geometry(),
      variation::SpatialCorrelationConfig{}, pca_opts);
  timing::TimingGraph g(space);
  const timing::VertexId in = g.add_vertex("in", /*is_input=*/true);
  const timing::VertexId out =
      g.add_vertex("out", /*is_input=*/false, /*is_output=*/true);
  g.add_edge(in, out, timing::CanonicalForm::constant(1.0, g.dim()));
  model::BoundaryData boundary;
  boundary.input_cap = {0.1};
  boundary.output_drive_res = {0.2};
  return {name, std::move(g), variation::ModuleVariation{part, space},
          std::move(boundary)};
}

model::TimingModel tiny_model(const std::string& name = "tiny") {
  return tiny_model(name, variation::default_90nm_parameters());
}

/// Two tiny-model instances in a row: pi -> a -> b -> po.
hier::HierDesign duo_design(const model::TimingModel& tm) {
  hier::HierDesign d("duo", placement::Die{20.0, 20.0});
  const size_t a = d.add_instance({"a", &tm, {0.0, 0.0}, nullptr, nullptr});
  const size_t b = d.add_instance({"b", &tm, {10.0, 0.0}, nullptr, nullptr});
  d.add_connection({hier::PortRef{a, 0}, hier::PortRef{b, 0}});
  d.add_primary_input({"pi0", {hier::PortRef{a, 0}}});
  d.add_primary_output({"po0", hier::PortRef{b, 0}});
  return d;
}

// --- catalog / severity / report plumbing -----------------------------------

TEST(CheckCatalog, IdsAreSortedUniqueAndResolvable) {
  const auto catalog = check::rule_catalog();
  ASSERT_FALSE(catalog.empty());
  for (size_t i = 0; i < catalog.size(); ++i) {
    const check::RuleInfo& r = catalog[i];
    EXPECT_EQ(check::find_rule(r.id), &r);
    EXPECT_FALSE(r.meaning.empty());
    EXPECT_FALSE(r.hint.empty());
    EXPECT_TRUE(r.family == "structural" || r.family == "numeric" ||
                r.family == "hierarchy" || r.family == "sequential")
        << r.id;
    if (i > 0) {
      EXPECT_LT(catalog[i - 1].id, r.id);
    }
  }
  EXPECT_EQ(check::find_rule("HSC999"), nullptr);
  EXPECT_EQ(check::find_rule(""), nullptr);
}

TEST(CheckCatalog, SeverityNamesRoundTrip) {
  EXPECT_EQ(check::severity_from_name("off"), Severity::kOff);
  EXPECT_EQ(check::severity_from_name("info"), Severity::kInfo);
  EXPECT_EQ(check::severity_from_name("warning"), Severity::kWarning);
  EXPECT_EQ(check::severity_from_name("warn"), Severity::kWarning);
  EXPECT_EQ(check::severity_from_name("error"), Severity::kError);
  EXPECT_THROW((void)check::severity_from_name("loud"), Error);
  EXPECT_STREQ(check::severity_name(Severity::kWarning), "warning");
}

TEST(CheckReport, WorstCountMergeAndExitCode) {
  Report rep;
  rep.subject = "s";
  EXPECT_TRUE(rep.clean());
  EXPECT_EQ(rep.worst(), Severity::kOff);
  EXPECT_EQ(check::exit_code(rep), 0);

  rep.diagnostics.push_back(
      {"HSC010", Severity::kInfo, "a", "unused input", "remove it"});
  EXPECT_EQ(check::exit_code(rep), 0);  // info does not gate
  rep.diagnostics.push_back(
      {"HSC003", Severity::kWarning, "g", "dead gate", "remove it"});
  EXPECT_EQ(rep.worst(), Severity::kWarning);
  EXPECT_EQ(check::exit_code(rep), 1);

  Report other;
  other.diagnostics.push_back(
      {"HSC002", Severity::kError, "n", "undriven", "drive it"});
  check::merge(rep, std::move(other));
  EXPECT_EQ(rep.diagnostics.size(), 3u);
  EXPECT_EQ(rep.worst(), Severity::kError);
  EXPECT_EQ(check::exit_code(rep), 2);
  EXPECT_EQ(rep.count(Severity::kError), 1u);
  EXPECT_TRUE(rep.has("HSC002"));
  EXPECT_FALSE(rep.has("HSC001"));
  EXPECT_NE(rep.summary().find("error HSC002 n: undriven"),
            std::string::npos);
}

TEST(CheckOptionsTest, OffSuppressesAndOverridesRemapSeverity) {
  netlist::Netlist nl = tiny_clean_netlist();
  (void)nl.add_primary_input("unused");  // HSC010 (info)
  const netlist::NetId y = nl.add_net("y");
  nl.add_gate("dead", &cell("INV"), {nl.net_by_name("a")}, y);  // HSC003

  const Report plain = check::run_checks(nl);
  EXPECT_TRUE(plain.has("HSC003"));
  EXPECT_TRUE(plain.has("HSC010"));
  EXPECT_EQ(check::exit_code(plain), 1);

  CheckOptions opts;
  opts.severity["HSC003"] = Severity::kOff;
  opts.severity["HSC010"] = Severity::kError;
  const Report tuned = check::run_checks(nl, opts);
  EXPECT_FALSE(tuned.has("HSC003"));
  EXPECT_TRUE(tuned.has("HSC010"));
  EXPECT_EQ(tuned.worst(), Severity::kError);
  EXPECT_EQ(check::exit_code(tuned), 2);
}

TEST(CheckConfig, SeverityTableParsesAndRejectsUnknownRules) {
  flow::Config cfg;
  cfg.set("check.HSC003", "off");
  cfg.set("check.HSC010", "warn");
  EXPECT_EQ(cfg.check_severity.at("HSC003"), Severity::kOff);
  EXPECT_EQ(cfg.check_severity.at("HSC010"), Severity::kWarning);
  EXPECT_THROW(cfg.set("check.HSC999", "warn"), Error);
  EXPECT_THROW(cfg.set("check.HSC003", "loud"), Error);
}

// --- structural netlist rules ------------------------------------------------

TEST(CheckNetlist, CleanNetlistIsClean) {
  const Report rep = check::run_checks(tiny_clean_netlist());
  EXPECT_TRUE(rep.clean()) << rep.summary();
  EXPECT_EQ(rep.subject, "tiny");
}

TEST(CheckNetlist, CombinationalCycleIsHSC001WithPath) {
  netlist::Netlist nl("cyc");
  const netlist::NetId a = nl.add_primary_input("a");
  const netlist::NetId x = nl.add_net("x");
  const netlist::NetId y = nl.add_net("y");
  nl.add_gate("g1", &cell("AND2"), {a, y}, x);
  nl.add_gate("g2", &cell("AND2"), {x, a}, y);
  nl.mark_primary_output(x);
  const Report rep = check::run_checks(nl);
  expect_within(rep, "HSC001", {});
  ASSERT_EQ(rep.diagnostics.size(), 1u);  // one diagnostic per cycle region
  EXPECT_NE(rep.diagnostics[0].message.find("g1 -> g2 -> g1"),
            std::string::npos)
      << rep.diagnostics[0].message;
  EXPECT_NE(rep.diagnostics[0].message.find("2 gate(s)"), std::string::npos);
  EXPECT_EQ(check::exit_code(rep), 2);
}

TEST(CheckNetlist, UndrivenNetIsHSC002) {
  netlist::Netlist nl = tiny_clean_netlist();
  const netlist::NetId dangling = nl.add_net("dangling");
  nl.gate(0).fanins[1] = dangling;
  const Report rep = check::run_checks(nl);
  expect_within(rep, "HSC002", {"HSC010"});  // net 'b' lost its sink
  EXPECT_EQ(rep.diagnostics[0].object, "dangling");
}

TEST(CheckNetlist, DeadGateOutputIsHSC003) {
  netlist::Netlist nl = tiny_clean_netlist();
  const netlist::NetId y = nl.add_net("y");
  nl.add_gate("dead", &cell("AND2"),
              {nl.net_by_name("a"), nl.net_by_name("b")}, y);
  const Report rep = check::run_checks(nl);
  expect_within(rep, "HSC003", {});
  EXPECT_EQ(rep.diagnostics[0].object, "dead");
}

TEST(CheckNetlist, DuplicateFaninPinIsHSC004) {
  netlist::Netlist nl = tiny_clean_netlist();
  nl.gate(0).fanins[1] = nl.gate(0).fanins[0];
  const Report rep = check::run_checks(nl);
  expect_within(rep, "HSC004", {"HSC010"});  // net 'b' lost its sink
}

TEST(CheckNetlist, IsolatedCycleConeIsHSC005AndHSC006) {
  netlist::Netlist nl = tiny_clean_netlist();
  const netlist::NetId u = nl.add_net("u");
  const netlist::NetId v = nl.add_net("v");
  nl.add_gate("r1", &cell("INV"), {v}, u);
  nl.add_gate("r2", &cell("INV"), {u}, v);
  const Report rep = check::run_checks(nl);
  expect_within(rep, "HSC001", {"HSC005", "HSC006"});
  EXPECT_TRUE(rep.has("HSC005"));  // r1/r2 unreachable from any PI
  EXPECT_TRUE(rep.has("HSC006"));  // fanout, but no path to a PO
}

TEST(CheckNetlist, InputMarkedOutputIsHSC007) {
  netlist::Netlist nl("feedthrough");
  const netlist::NetId a = nl.add_primary_input("a");
  nl.mark_primary_output(a);
  const Report rep = check::run_checks(nl);
  expect_within(rep, "HSC007", {});
  EXPECT_NE(rep.diagnostics[0].message.find("both primary input"),
            std::string::npos);
}

TEST(CheckNetlist, DuplicateNamesAreHSC007) {
  netlist::Netlist nl = tiny_clean_netlist();
  const netlist::NetId d1 = nl.add_primary_input("dup");
  const netlist::NetId d2 = nl.add_primary_input("dup");
  const netlist::NetId o1 = nl.add_net("o1");
  const netlist::NetId o2 = nl.add_net("o2");
  nl.add_gate("twin", &cell("INV"), {d1}, o1);
  nl.add_gate("twin", &cell("INV"), {d2}, o2);
  nl.mark_primary_output(o1);
  nl.mark_primary_output(o2);
  const Report rep = check::run_checks(nl);
  EXPECT_EQ(rep.count(Severity::kWarning), 2u) << rep.summary();
  EXPECT_TRUE(rep.has("HSC007"));
  EXPECT_NE(rep.summary().find("2 nets share the name 'dup'"),
            std::string::npos);
  EXPECT_NE(rep.summary().find("2 gates share the name 'twin'"),
            std::string::npos);
}

TEST(CheckNetlist, MissingPortsAreHSC008) {
  const netlist::Netlist empty("void");
  const Report rep = check::run_checks(empty);
  EXPECT_EQ(rep.count(Severity::kError), 2u);  // no PIs and no POs
  EXPECT_TRUE(rep.has("HSC008"));

  netlist::Netlist nopo("nopo");
  const netlist::NetId a = nopo.add_primary_input("a");
  const netlist::NetId x = nopo.add_net("x");
  nopo.add_gate("g", &cell("INV"), {a}, x);
  const Report rep2 = check::run_checks(nopo);
  expect_within(rep2, "HSC008", {"HSC003"});
}

TEST(CheckNetlist, ArityMismatchAndNullTypeAreHSC009) {
  netlist::Netlist nl = tiny_clean_netlist();
  nl.gate(0).fanins.pop_back();  // AND2 with one pin
  const Report rep = check::run_checks(nl);
  expect_within(rep, "HSC009", {"HSC010"});
  EXPECT_NE(rep.summary().find("expects 2"), std::string::npos);

  netlist::Netlist nl2 = tiny_clean_netlist();
  nl2.gate(0).type = nullptr;
  const Report rep2 = check::run_checks(nl2);
  expect_within(rep2, "HSC009", {});
  EXPECT_NE(rep2.summary().find("no cell type"), std::string::npos);
}

TEST(CheckNetlist, UnusedPrimaryInputIsHSC010) {
  netlist::Netlist nl = tiny_clean_netlist();
  (void)nl.add_primary_input("spare");
  const Report rep = check::run_checks(nl);
  expect_within(rep, "HSC010", {});
  EXPECT_EQ(rep.worst(), Severity::kInfo);
  EXPECT_EQ(check::exit_code(rep), 0);
}

/// A minimal clean sequential netlist: a register loop (q -> g_d -> d -> q)
/// whose state is observed at a primary output through g_y.
netlist::Netlist tiny_sequential_netlist() {
  netlist::Netlist nl("seqtiny");
  const netlist::NetId a = nl.add_primary_input("a");
  const netlist::NetId q = nl.add_net("q");
  const netlist::NetId d = nl.add_net("d");
  const netlist::NetId y = nl.add_net("y");
  nl.add_gate("g_d", &cell("NAND2"), {a, q}, d);
  nl.add_gate("g_y", &cell("INV"), {q}, y);
  nl.add_register("q", d, q);
  nl.mark_primary_output(y);
  return nl;
}

TEST(CheckNetlist, CleanSequentialNetlistIsClean) {
  const netlist::Netlist nl = tiny_sequential_netlist();
  nl.validate();
  const Report rep = check::run_checks(nl);
  EXPECT_TRUE(rep.clean()) << rep.summary();
}

TEST(CheckNetlist, RegisterUndrivenDataIsHSC048) {
  netlist::Netlist nl("seq048d");
  const netlist::NetId a = nl.add_primary_input("a");
  const netlist::NetId dangling = nl.add_net("dangling");
  const netlist::NetId q = nl.add_net("q");
  const netlist::NetId y = nl.add_net("y");
  nl.add_gate("g_y", &cell("NAND2"), {a, q}, y);
  nl.add_register("q", dangling, q);
  nl.mark_primary_output(y);
  const Report rep = check::run_checks(nl);
  // The dangling data net is also an undriven net (HSC002).
  expect_within(rep, "HSC048", {"HSC002"});
  EXPECT_TRUE(rep.has("HSC002"));
  EXPECT_NE(rep.summary().find("data net 'dangling' is undriven"),
            std::string::npos)
      << rep.summary();
}

TEST(CheckNetlist, RegisterUndrivenClockIsHSC048Alone) {
  netlist::Netlist nl("seq048c");
  const netlist::NetId a = nl.add_primary_input("a");
  const netlist::NetId q = nl.add_net("q");
  const netlist::NetId d = nl.add_net("d");
  const netlist::NetId clk = nl.add_net("clk");  // never driven
  nl.add_gate("g_d", &cell("NAND2"), {a, q}, d);
  nl.add_register("q", d, q, clk);
  nl.mark_primary_output(q);
  const Report rep = check::run_checks(nl);
  // A clock-only undriven net is HSC048's finding, not a duplicate HSC002.
  expect_within(rep, "HSC048", {});
  EXPECT_NE(rep.summary().find("clock net 'clk' is undriven"),
            std::string::npos)
      << rep.summary();
}

TEST(CheckNetlist, LatchFreeCycleInSequentialNetlistIsHSC049) {
  netlist::Netlist nl = tiny_sequential_netlist();
  const netlist::NetId u = nl.add_net("u");
  const netlist::NetId v = nl.add_net("v");
  nl.add_gate("c1", &cell("INV"), {v}, u);
  nl.add_gate("c2", &cell("INV"), {u}, v);
  const Report rep = check::run_checks(nl);
  expect_within(rep, "HSC049", {"HSC005", "HSC006"});
  EXPECT_NE(
      rep.summary().find("combinational cycle through a latch-free path"),
      std::string::npos)
      << rep.summary();
  // The register-broken loop of the base fixture must NOT be reported:
  // only the latch-free c1/c2 loop is a finding.
  EXPECT_FALSE(rep.has("HSC001"));
}

TEST(CheckNetlist, UnobservedRegisterIsHSC050) {
  netlist::Netlist nl = tiny_sequential_netlist();
  const netlist::NetId q2 = nl.add_net("q2");
  const netlist::NetId d2 = nl.add_net("d2");
  nl.add_gate("g_d2", &cell("INV"), {q2}, d2);
  nl.add_register("q2", d2, q2);
  const Report rep = check::run_checks(nl);
  // g_d2 also has no path to a PO (HSC006).
  expect_within(rep, "HSC050", {"HSC006"});
  EXPECT_NE(rep.summary().find("output net 'q2' never reaches a primary"),
            std::string::npos)
      << rep.summary();
  // The observed register of the base fixture is not flagged.
  EXPECT_EQ(rep.summary().find("'q' "), std::string::npos) << rep.summary();
}

TEST(CheckNetlist, FiftySeededRandomDagsAreClean) {
  for (uint64_t seed = 0; seed < 50; ++seed) {
    stats::Rng shape(2026 + seed);
    netlist::RandomDagSpec spec;
    spec.name = "rnd" + std::to_string(seed);
    spec.num_inputs = 4 + shape.uniform_index(8);
    spec.num_outputs = 3 + shape.uniform_index(6);
    spec.num_gates = 40 + shape.uniform_index(80);
    spec.num_pins = spec.num_gates + spec.num_gates / 2 +
                    shape.uniform_index(spec.num_gates);
    spec.depth = 4 + shape.uniform_index(8);
    spec.seed = seed * 7919 + 1;
    const netlist::Netlist nl =
        netlist::make_random_dag(spec, testing::default_lib());
    const Report rep = check::run_checks(nl);
    EXPECT_TRUE(rep.clean()) << spec.name << "\n" << rep.summary();
  }
}

TEST(CheckIscas, AllProfilesAreCleanOnNetlistAndGraph) {
  for (const netlist::IscasProfile& prof : netlist::iscas85_profiles()) {
    const flow::Module m = flow::Module::from_iscas(prof.name);
    const Report nrep = check::run_checks(m.netlist());
    EXPECT_TRUE(nrep.clean()) << prof.name << "\n" << nrep.summary();
    const Report grep = check::run_checks(m.graph(), std::string(prof.name));
    EXPECT_TRUE(grep.clean()) << prof.name << "\n" << grep.summary();
  }
}

// --- numeric graph / model / space rules -------------------------------------

timing::TimingGraph synthetic_graph(uint64_t seed) {
  stats::Rng rng(seed);
  testing::SyntheticGraphSpec spec;
  spec.dim = 3;
  return testing::make_synthetic_graph(spec, rng);
}

timing::EdgeId first_live_edge(const timing::TimingGraph& g) {
  for (timing::EdgeId e = 0; e < g.num_edge_slots(); ++e)
    if (g.edge_alive(e)) return e;
  ADD_FAILURE() << "graph has no live edge";
  return 0;
}

TEST(CheckGraph, FiftySeededSyntheticGraphsAreClean) {
  for (uint64_t seed = 0; seed < 50; ++seed) {
    stats::Rng rng(31 * seed + 7);
    const testing::SyntheticGraphSpec spec = testing::random_spec(rng);
    const timing::TimingGraph g = testing::make_synthetic_graph(spec, rng);
    const Report rep = check::run_checks(g, "syn" + std::to_string(seed));
    EXPECT_TRUE(rep.clean()) << "seed " << seed << "\n" << rep.summary();
  }
}

TEST(CheckGraph, NanNominalIsHSC020) {
  timing::TimingGraph g = synthetic_graph(1);
  g.edge(first_live_edge(g)).delay.set_nominal(std::nan(""));
  const Report rep = check::run_checks(g, "syn");
  expect_within(rep, "HSC020", {});
  EXPECT_EQ(rep.diagnostics.size(), 1u);
}

TEST(CheckGraph, InfiniteCoefficientIsHSC020) {
  timing::TimingGraph g = synthetic_graph(2);
  g.edge(first_live_edge(g)).delay.corr()[0] =
      std::numeric_limits<double>::infinity();
  const Report rep = check::run_checks(g, "syn");
  expect_within(rep, "HSC020", {});
}

TEST(CheckGraph, NegativeNominalIsHSC021) {
  timing::TimingGraph g = synthetic_graph(3);
  g.edge(first_live_edge(g)).delay.set_nominal(-0.25);
  const Report rep = check::run_checks(g, "syn");
  expect_within(rep, "HSC021", {});
  EXPECT_EQ(check::exit_code(rep), 1);
}

TEST(CheckGraph, NegativeRandomSigmaIsHSC022) {
  timing::TimingGraph g = synthetic_graph(4);
  // A FormView writes past set_random's non-negativity guard — exactly the
  // kind of kernel bug this rule exists to catch.
  *g.edge(first_live_edge(g)).delay.view().random = -0.01;
  const Report rep = check::run_checks(g, "syn");
  expect_within(rep, "HSC022", {});
}

TEST(CheckModel, TinyAndExtractedModelsAreClean) {
  const Report tiny = check::run_checks(tiny_model());
  EXPECT_TRUE(tiny.clean()) << tiny.summary();

  const testing::ModuleUnderTest m(testing::small_module_spec());
  const Report rep = check::run_checks(m.model());
  EXPECT_TRUE(rep.clean()) << rep.summary();
  EXPECT_EQ(rep.subject, m.model().name());
}

TEST(CheckModel, NonFiniteDelayIsHSC020) {
  model::TimingModel tm = tiny_model();
  tm.graph().edge(0).delay.set_nominal(std::nan(""));
  const Report rep = check::run_checks(tm);
  expect_within(rep, "HSC020", {});
}

TEST(CheckModel, MissingSpaceIsHSC023) {
  const variation::GridPartition part(placement::Die{10.0, 10.0}, 1, 1);
  timing::TimingGraph g(size_t{3});
  const timing::VertexId in = g.add_vertex("in", true);
  const timing::VertexId out = g.add_vertex("out", false, true);
  g.add_edge(in, out, timing::CanonicalForm::constant(1.0, 3));
  model::BoundaryData boundary;
  boundary.input_cap = {0.1};
  boundary.output_drive_res = {0.2};
  const model::TimingModel tm("spaceless", std::move(g),
                              variation::ModuleVariation{part, nullptr},
                              std::move(boundary));
  const Report rep = check::run_checks(tm);
  expect_within(rep, "HSC023", {});
  EXPECT_NE(rep.summary().find("no variation space"), std::string::npos);
}

TEST(CheckModel, ZeroRetainedPcaIsHSC023) {
  linalg::PcaOptions pca;
  pca.max_components = 0;
  const model::TimingModel tm =
      tiny_model("degenerate", variation::default_90nm_parameters(), pca);
  const Report rep = check::run_checks(tm);
  expect_within(rep, "HSC023", {});
  EXPECT_NE(rep.summary().find("zero spatial components"), std::string::npos);
}

TEST(CheckModel, ZeroSigmaParameterIsHSC024) {
  variation::ParameterSet params = variation::default_90nm_parameters();
  params.params[0].sigma_rel = 0.0;
  const Report rep = check::run_checks(tiny_model("zsig", std::move(params)));
  expect_within(rep, "HSC024", {});
  EXPECT_EQ(rep.diagnostics[0].object, "Leff");
}

TEST(CheckModel, NonFiniteLoadSigmaIsHSC024) {
  variation::ParameterSet params = variation::default_90nm_parameters();
  params.load_sigma_rel = std::numeric_limits<double>::infinity();
  const Report rep = check::run_checks(tiny_model("zload", std::move(params)));
  expect_within(rep, "HSC024", {});
  EXPECT_NE(rep.summary().find("load_sigma_rel"), std::string::npos);
}

TEST(CheckModel, BoundaryArityMismatchIsHSC043) {
  model::TimingModel tm = tiny_model();
  // Grow the port list after construction; the stored boundary vectors are
  // now stale — exactly what a hand-edited .hstm can produce.
  (void)tm.graph().add_vertex("in2", /*is_input=*/true);
  const Report rep = check::run_checks(tm);
  expect_within(rep, "HSC043", {});
  EXPECT_NE(rep.summary().find("input_cap"), std::string::npos);
}

// --- hierarchy rules ---------------------------------------------------------

TEST(CheckHier, CleanDuoAndQuadDesigns) {
  const model::TimingModel tm = tiny_model();
  const hier::HierDesign duo = duo_design(tm);
  const Report rep = check::run_checks(duo, hier::HierOptions{});
  EXPECT_TRUE(rep.clean()) << rep.summary();
  EXPECT_EQ(rep.instances_checked, 2u);
  EXPECT_EQ(rep.subject, "duo");

  const testing::ModuleUnderTest m(testing::small_module_spec());
  const hier::HierDesign quad = testing::make_quad_design(m);
  const Report qrep = check::run_checks(quad, hier::HierOptions{});
  EXPECT_TRUE(qrep.clean()) << qrep.summary();
  EXPECT_EQ(qrep.instances_checked, 4u);
}

TEST(CheckHier, ParallelAndSerialReportsAreIdentical) {
  const testing::ModuleUnderTest m(testing::small_module_spec());
  hier::HierDesign d = testing::make_quad_design(m);
  // Inject a spread of defects so the merge order actually matters.
  d.add_connection({hier::PortRef{0, 0}, hier::PortRef{9, 0}});
  d.add_primary_input({"loose", {}});
  const hier::HierOptions hopts;
  const Report serial = check::run_checks(d, hopts);
  const std::shared_ptr<exec::Executor> ex = exec::make_executor(4);
  const Report parallel = check::run_checks(d, hopts, {}, *ex);
  EXPECT_EQ(serial.summary(), parallel.summary());
  EXPECT_FALSE(serial.clean());
}

// Note: `HierDesign::add_instance` REQUIREs a non-null model, so HSC040's
// null-model branch is defensive; the craftable trigger is a dangling
// endpoint.
TEST(CheckHier, DanglingEndpointsAreHSC040) {
  const model::TimingModel tm = tiny_model();
  hier::HierDesign d = duo_design(tm);
  d.add_connection({hier::PortRef{0, 0}, hier::PortRef{7, 0}});  // no inst 7
  d.add_primary_output({"bad", hier::PortRef{1, 9}});            // no port 9
  const Report rep = check::run_checks(d, hier::HierOptions{});
  expect_within(rep, "HSC040", {});
  EXPECT_EQ(rep.count(Severity::kError), 2u) << rep.summary();
  EXPECT_NE(rep.summary().find("2 instances"), std::string::npos);
}

TEST(CheckHier, DoubleDrivenInputIsHSC041) {
  const model::TimingModel tm = tiny_model();
  hier::HierDesign d = duo_design(tm);
  d.add_connection({hier::PortRef{0, 0}, hier::PortRef{1, 0}});  // again
  const Report rep = check::run_checks(d, hier::HierOptions{});
  expect_within(rep, "HSC041", {});
  EXPECT_NE(rep.summary().find("driven 2 times"), std::string::npos);
}

TEST(CheckHier, FloatingInputAndSinklessPiAreHSC042) {
  const model::TimingModel tm = tiny_model();
  hier::HierDesign d("float", placement::Die{20.0, 20.0});
  (void)d.add_instance({"a", &tm, {0.0, 0.0}, nullptr, nullptr});
  d.add_primary_input({"loose", {}});  // no sinks
  d.add_primary_output({"po0", hier::PortRef{0, 0}});
  const Report rep = check::run_checks(d, hier::HierOptions{});
  expect_within(rep, "HSC042", {});
  EXPECT_EQ(rep.count(Severity::kWarning), 2u) << rep.summary();
}

TEST(CheckHier, NetlistModelPortMismatchIsHSC043) {
  const model::TimingModel tm = tiny_model();         // one input, one output
  const netlist::Netlist two_pi = tiny_clean_netlist();  // two inputs
  hier::HierDesign d("mismatch", placement::Die{20.0, 20.0});
  (void)d.add_instance({"a", &tm, {0.0, 0.0}, &two_pi, nullptr});
  d.add_primary_input({"pi0", {hier::PortRef{0, 0}}});
  d.add_primary_output({"po0", hier::PortRef{0, 0}});
  const Report rep = check::run_checks(d, hier::HierOptions{});
  expect_within(rep, "HSC043", {});
  // Input-count mismatch, output-order mismatch and the missing module
  // placement all land on the same rule.
  EXPECT_NE(rep.summary().find("2 primary inputs"), std::string::npos);
  EXPECT_NE(rep.summary().find("module placement"), std::string::npos);
}

TEST(CheckHier, SigmaScaleArityIsHSC044) {
  const model::TimingModel tm = tiny_model();
  const hier::HierDesign d = duo_design(tm);
  hier::HierOptions hopts;
  hopts.param_sigma_scale = {1.0, 2.0};  // model has 3 parameters
  const Report rep = check::run_checks(d, hopts);
  expect_within(rep, "HSC044", {});
  EXPECT_NE(rep.summary().find("2 entries for 3"), std::string::npos);
}

TEST(CheckHier, OffDieInstanceIsHSC045) {
  const model::TimingModel tm = tiny_model();
  hier::HierDesign d("off", placement::Die{20.0, 20.0});
  (void)d.add_instance({"a", &tm, {15.0, 15.0}, nullptr, nullptr});
  d.add_primary_input({"pi0", {hier::PortRef{0, 0}}});
  d.add_primary_output({"po0", hier::PortRef{0, 0}});
  const Report rep = check::run_checks(d, hier::HierOptions{});
  expect_within(rep, "HSC045", {});
  EXPECT_NE(rep.summary().find("extends beyond"), std::string::npos);
}

TEST(CheckHier, ParameterDisagreementIsHSC046) {
  const model::TimingModel tm3 = tiny_model("three");
  variation::ParameterSet two = variation::default_90nm_parameters();
  two.params.pop_back();
  const model::TimingModel tm2 = tiny_model("two", std::move(two));
  hier::HierDesign d("mix", placement::Die{20.0, 20.0});
  const size_t a = d.add_instance({"a", &tm3, {0.0, 0.0}, nullptr, nullptr});
  const size_t b = d.add_instance({"b", &tm2, {10.0, 0.0}, nullptr, nullptr});
  d.add_connection({hier::PortRef{a, 0}, hier::PortRef{b, 0}});
  d.add_primary_input({"pi0", {hier::PortRef{a, 0}}});
  d.add_primary_output({"po0", hier::PortRef{b, 0}});
  const Report rep = check::run_checks(d, hier::HierOptions{});
  expect_within(rep, "HSC046", {});
  EXPECT_NE(rep.summary().find("2 process parameters"), std::string::npos);
}

TEST(CheckHier, EmptyDesignIsHSC047) {
  const hier::HierDesign d("void", placement::Die{10.0, 10.0});
  const Report rep = check::run_checks(d, hier::HierOptions{});
  EXPECT_EQ(rep.count(Severity::kError), 3u) << rep.summary();
  EXPECT_TRUE(rep.has("HSC047"));
  EXPECT_EQ(rep.instances_checked, 0u);
}

// --- mutation fuzz -----------------------------------------------------------

TEST(CheckFuzz, SeededNetlistMutationsAreCaughtWithinClosure) {
  // Knock-on closure shared by the structural mutations: rewiring a pin can
  // orphan the old fanin net's cone (dead gates, unused inputs, cones cut
  // off from the ports) and the cache-invalidating spare input is an
  // expected HSC010.
  const std::initializer_list<std::string_view> structural = {
      "HSC003", "HSC005", "HSC006", "HSC010"};
  for (uint64_t seed = 0; seed < 40; ++seed) {
    stats::Rng rng(5000 + seed);
    netlist::RandomDagSpec spec;
    spec.name = "fuzz" + std::to_string(seed);
    spec.num_inputs = 4 + rng.uniform_index(6);
    spec.num_outputs = 3 + rng.uniform_index(4);
    spec.num_gates = 30 + rng.uniform_index(60);
    spec.num_pins = spec.num_gates + spec.num_gates / 2 +
                    rng.uniform_index(spec.num_gates);
    spec.depth = 4 + rng.uniform_index(6);
    spec.seed = seed + 1;
    netlist::Netlist nl =
        netlist::make_random_dag(spec, testing::default_lib());

    const netlist::GateId gi =
        static_cast<netlist::GateId>(rng.uniform_index(nl.num_gates()));
    netlist::Gate& gate = nl.gate(gi);
    const size_t pin = rng.uniform_index(gate.fanins.size());
    std::string_view primary;
    switch (seed % 5) {
      case 0:  // dangling fanin
        gate.fanins[pin] = nl.add_net("injected_undriven");
        primary = "HSC002";
        break;
      case 1:  // self-loop
        gate.fanins[pin] = gate.output;
        primary = "HSC001";
        break;
      case 2:  // arity break
        gate.fanins.pop_back();
        primary = "HSC009";
        break;
      case 3:  // duplicate pin (needs >= 2 pins; fall back to arity break)
        if (gate.fanins.size() >= 2) {
          gate.fanins[1] = gate.fanins[0];
          primary = "HSC004";
        } else {
          gate.fanins.pop_back();
          primary = "HSC009";
        }
        break;
      default:  // dropped cell type
        gate.type = nullptr;
        primary = "HSC009";
        break;
    }
    // Direct Gate mutation bypasses the net-sink cache invalidation; a
    // fresh (spare) primary input forces the recompute.
    (void)nl.add_primary_input("fuzz_spare");
    const Report rep = check::run_checks(nl);
    SCOPED_TRACE("seed " + std::to_string(seed));
    expect_within(rep, primary, structural);
    EXPECT_GT(check::exit_code(rep), 0);
  }
}

TEST(CheckFuzz, SeededGraphMutationsAreCaughtExactly) {
  for (uint64_t seed = 0; seed < 30; ++seed) {
    stats::Rng rng(9000 + seed);
    testing::SyntheticGraphSpec spec = testing::random_spec(rng);
    spec.dim = 1 + spec.dim;  // coefficient mutations need dim >= 1
    timing::TimingGraph g = testing::make_synthetic_graph(spec, rng);
    std::vector<timing::EdgeId> live;
    for (timing::EdgeId e = 0; e < g.num_edge_slots(); ++e)
      if (g.edge_alive(e)) live.push_back(e);
    ASSERT_FALSE(live.empty());
    timing::CanonicalForm& d =
        g.edge(live[rng.uniform_index(live.size())]).delay;
    std::string_view primary;
    switch (seed % 4) {
      case 0:
        d.set_nominal(std::nan(""));
        primary = "HSC020";
        break;
      case 1:
        d.corr()[rng.uniform_index(d.dim())] =
            -std::numeric_limits<double>::infinity();
        primary = "HSC020";
        break;
      case 2:
        d.set_nominal(-0.5);
        primary = "HSC021";
        break;
      default:
        *d.view().random = -1e-3;
        primary = "HSC022";
        break;
    }
    const Report rep = check::run_checks(g, "fuzz" + std::to_string(seed));
    SCOPED_TRACE("seed " + std::to_string(seed));
    expect_within(rep, primary, {});
    EXPECT_EQ(rep.diagnostics.size(), 1u) << rep.summary();
  }
}

}  // namespace
}  // namespace hssta
