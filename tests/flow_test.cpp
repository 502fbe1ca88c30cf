// Tests for the flow:: pipeline facade: module results bit-match the
// hand-wired legacy subsystem chain, stages are cached (same object on
// repeated calls), config parsing rejects malformed input, and a model
// saved to .hstm and reloaded into a flow::Design analyzes identically to
// the design built from the live modules.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "fixtures.hpp"
#include "hssta/core/io_delays.hpp"
#include "hssta/flow/flow.hpp"
#include "hssta/hier/hier_ssta.hpp"
#include "hssta/mc/hier_mc.hpp"
#include "hssta/netlist/iscas.hpp"
#include "hssta/util/error.hpp"

namespace hssta::flow {
namespace {

flow::Module small_module(uint64_t seed = 77) {
  return Module::from_random_dag(testing::small_module_spec(seed));
}

/// A design-level fixture: one small module chained a -> b.
Design make_chain_design(const Module& m) {
  const placement::Die mdie = m.model().die();
  Design d("chain");
  const size_t a = d.add_instance(m, 0, 0, "a");
  const size_t b = d.add_instance(m, mdie.width, 0, "b");
  const size_t ni = d.num_inputs(a);
  const size_t no = d.num_outputs(a);
  for (size_t k = 0; k < ni; ++k) d.connect(a, k % no, b, k);
  for (size_t k = 0; k < ni; ++k) {
    const std::string index = std::to_string(k);
    d.primary_input("p" + index, a, k);
  }
  for (size_t k = 0; k < no; ++k) {
    const std::string index = std::to_string(k);
    d.primary_output("q" + index, b, k);
  }
  return d;
}

TEST(FlowModule, BitMatchesLegacyChainOnIscasFixture) {
  // The hand-wired legacy chain, exactly as every consumer used to spell
  // it out.
  const library::CellLibrary& lib = testing::default_lib();
  const netlist::Netlist nl = netlist::make_iscas85("c432", lib);
  const placement::Placement pl = placement::place_rows(nl);
  const variation::ModuleVariation mv = variation::make_module_variation(
      pl, nl.num_gates(), variation::default_90nm_parameters(),
      variation::SpatialCorrelationConfig{});
  const timing::BuiltGraph built = timing::build_timing_graph(nl, pl, mv);
  const core::SstaResult legacy = core::run_ssta(built.graph);
  const model::Extraction legacy_ex = model::extract_timing_model(
      built, mv, nl.name(), model::compute_boundary(nl), exec::serial(),
      model::ExtractOptions{0.05, true});

  // The facade with the default config.
  const Module m = Module::from_iscas("c432");
  EXPECT_EQ(m.delay().nominal(), legacy.delay.nominal());
  EXPECT_EQ(m.delay().sigma(), legacy.delay.sigma());
  EXPECT_EQ(m.variation().partition.num_grids(), mv.partition.num_grids());
  EXPECT_EQ(m.variation().space->dim(), mv.space->dim());
  EXPECT_EQ(m.graph().num_live_edges(), built.graph.num_live_edges());

  const model::Extraction& ex = m.extract_model();
  EXPECT_EQ(ex.stats.model_edges, legacy_ex.stats.model_edges);
  EXPECT_EQ(ex.stats.model_vertices, legacy_ex.stats.model_vertices);
  const core::DelayMatrix a = ex.model.io_delays();
  const core::DelayMatrix b = legacy_ex.model.io_delays();
  ASSERT_EQ(a.num_inputs(), b.num_inputs());
  ASSERT_EQ(a.num_outputs(), b.num_outputs());
  for (size_t i = 0; i < a.num_inputs(); ++i)
    for (size_t j = 0; j < a.num_outputs(); ++j) {
      ASSERT_EQ(a.is_valid(i, j), b.is_valid(i, j));
      if (!a.is_valid(i, j)) continue;
      EXPECT_EQ(a.at(i, j).nominal(), b.at(i, j).nominal());
      EXPECT_EQ(a.at(i, j).sigma(), b.at(i, j).sigma());
    }

  // Monte Carlo too: the facade wraps the same FlatCircuit and RNG.
  const mc::FlatCircuit fc = mc::FlatCircuit::from_module(built, nl, mv);
  stats::Rng rng(2009);
  const stats::EmpiricalDistribution ref = fc.sample_delay(500, rng);
  const stats::EmpiricalDistribution& got =
      m.monte_carlo(McOptions{500, 2009});
  EXPECT_EQ(got.mean(), ref.mean());
  EXPECT_EQ(got.stddev(), ref.stddev());
}

TEST(FlowModule, StageCachingReturnsSameObject) {
  const Module m = small_module();
  EXPECT_EQ(&m.placement(), &m.placement());
  EXPECT_EQ(&m.variation(), &m.variation());
  EXPECT_EQ(&m.built(), &m.built());
  EXPECT_EQ(&m.ssta(), &m.ssta());
  EXPECT_EQ(&m.delay(), &m.delay());
  EXPECT_EQ(&m.slack(1.0), &m.slack(1.0));
  EXPECT_EQ(&m.critical_paths(3), &m.critical_paths(3));
  EXPECT_EQ(&m.extract_model(), &m.extract_model());
  EXPECT_EQ(&m.flat_circuit(), &m.flat_circuit());
  EXPECT_EQ(&m.monte_carlo(McOptions{100, 1}),
            &m.monte_carlo(McOptions{100, 1}));

  // Different arguments are distinct cache entries, and earlier references
  // stay valid.
  const core::SlackResult& s1 = m.slack(1.0);
  const core::SlackResult& s2 = m.slack(2.0);
  EXPECT_NE(&s1, &s2);
  EXPECT_EQ(&m.slack(1.0), &s1);
  const model::Extraction& e1 = m.extract_model();
  const model::Extraction& e2 =
      m.extract_model(model::ExtractOptions{0.2, true});
  EXPECT_NE(&e1, &e2);
  EXPECT_EQ(&m.extract_model(), &e1);

  // Copies of the handle share the state and its caches.
  const Module copy = m;  // NOLINT
  EXPECT_EQ(&copy.ssta(), &m.ssta());
}

TEST(FlowModule, FactoriesCoverNetlistSources) {
  const Module bench = Module::from_bench_string(
      "INPUT(a)\nINPUT(b)\nOUTPUT(x)\nx = NAND(a, b)\n");
  EXPECT_EQ(bench.netlist().num_gates(), 1u);
  EXPECT_GT(bench.delay().nominal(), 0.0);

  const Module iscas = Module::from_iscas("c432");
  EXPECT_EQ(iscas.name(), "c432");
}

TEST(FlowDesign, MatchesHandWiredHierAnalysis) {
  const Module m = small_module();
  const Design d = make_chain_design(m);

  // The same topology spelled out against the subsystem API.
  const placement::Die mdie = m.model().die();
  hier::HierDesign ref("chain", placement::Die{2 * mdie.width, mdie.height});
  const size_t a = ref.add_instance(
      {"a", &m.model(), {0, 0}, &m.netlist(), &m.placement()});
  const size_t b = ref.add_instance(
      {"b", &m.model(), {mdie.width, 0}, &m.netlist(), &m.placement()});
  const size_t ni = m.model().graph().inputs().size();
  const size_t no = m.model().graph().outputs().size();
  for (size_t k = 0; k < ni; ++k)
    ref.add_connection({hier::PortRef{a, k % no}, hier::PortRef{b, k}});
  for (size_t k = 0; k < ni; ++k)
    ref.add_primary_input({"p" + std::to_string(k), {hier::PortRef{a, k}}});
  for (size_t k = 0; k < no; ++k)
    ref.add_primary_output({"q" + std::to_string(k), hier::PortRef{b, k}});
  ref.validate();
  const hier::HierResult expect = hier::analyze_hierarchical(ref);

  const hier::HierResult& got = d.analyze();
  EXPECT_EQ(got.delay().nominal(), expect.delay().nominal());
  EXPECT_EQ(got.delay().sigma(), expect.delay().sigma());

  // Caching and per-option entries, as for modules.
  EXPECT_EQ(&d.analyze(), &got);
  hier::HierOptions glob;
  glob.mode = hier::CorrelationMode::kGlobalOnly;
  EXPECT_NE(&d.analyze(glob), &got);
  EXPECT_EQ(&d.analyze(), &got);

  // Monte Carlo runs because both instances carry their netlists, and
  // matches the subsystem flattener.
  EXPECT_TRUE(d.can_monte_carlo());
  stats::Rng rng(11);
  const stats::EmpiricalDistribution ref_mc =
      mc::flatten_design(ref, hier::build_design_grid(ref))
          .sample_delay(300, rng);
  const stats::EmpiricalDistribution& got_mc =
      d.monte_carlo(McOptions{300, 11});
  EXPECT_EQ(got_mc.mean(), ref_mc.mean());
  EXPECT_EQ(got_mc.stddev(), ref_mc.stddev());
}

TEST(FlowDesign, SaveLoadAnalyzeEquality) {
  const Module m = small_module(91);
  const Design live = make_chain_design(m);

  const std::string path =
      (std::filesystem::temp_directory_path() / "hssta_flow_test.hstm")
          .string();
  m.model().save_file(path);

  // Rebuild the design from the serialized model alone (the IP hand-off:
  // no netlist, no placement).
  const placement::Die mdie = m.model().die();
  Design loaded("chain");
  const size_t a = loaded.add_instance_from_model_file(path, 0, 0, "a");
  const size_t b =
      loaded.add_instance_from_model_file(path, mdie.width, 0, "b");
  const size_t ni = loaded.num_inputs(a);
  const size_t no = loaded.num_outputs(a);
  for (size_t k = 0; k < ni; ++k) loaded.connect(a, k % no, b, k);
  for (size_t k = 0; k < ni; ++k) {
    const std::string index = std::to_string(k);
    loaded.primary_input("p" + index, a, k);
  }
  for (size_t k = 0; k < no; ++k) {
    const std::string index = std::to_string(k);
    loaded.primary_output("q" + index, b, k);
  }

  EXPECT_EQ(loaded.analyze().delay().nominal(),
            live.analyze().delay().nominal());
  EXPECT_EQ(loaded.analyze().delay().sigma(), live.analyze().delay().sigma());

  // Model-only instances cannot be flattened for Monte Carlo.
  EXPECT_FALSE(loaded.can_monte_carlo());
  EXPECT_THROW((void)loaded.monte_carlo(McOptions{10, 1}), Error);

  std::remove(path.c_str());
}

TEST(FlowDesign, ExposeUnconnectedPortsCompletesBoundary) {
  const Module m = small_module();
  Design d("auto");
  const size_t a = d.add_instance(m, 0, 0);
  const size_t b = d.add_instance(m, m.model().die().width, 0);
  const size_t no = d.num_outputs(a);
  d.connect(a, 0, b, 0);  // one explicit net; the rest is auto-exposed
  d.expose_unconnected_ports();
  const hier::HierDesign& h = d.hier();  // builds and validates
  EXPECT_EQ(h.primary_inputs().size(),
            d.num_inputs(a) + d.num_inputs(b) - 1);
  EXPECT_EQ(h.primary_outputs().size(), 2 * no - 1);
  EXPECT_GT(d.delay().nominal(), 0.0);
}

TEST(FlowConfig, DefaultsMatchPaperSetup) {
  const Config cfg;
  EXPECT_EQ(cfg.extract.criticality_threshold, 0.05);
  EXPECT_EQ(cfg.max_cells_per_grid, 100u);
  EXPECT_EQ(cfg.correlation.rho_neighbor, 0.92);
  EXPECT_EQ(cfg.correlation.rho_global, 0.42);
  EXPECT_EQ(cfg.parameters.params.size(), 3u);
  EXPECT_EQ(cfg.mc.samples, 10000u);
}

TEST(FlowConfig, ParsesSectionsKeysAndComments) {
  const Config cfg = Config::from_string(
      "# run configuration\n"
      "grid.max_cells = 50\n"
      "\n"
      "[extract]\n"
      "delta = 0.1          # knee of the ablation curve\n"
      "repair_connectivity = false\n"
      "[hier]\n"
      "mode = global_only\n"
      "interconnect_delay = 0.02\n"
      "pca.max_components = 7\n"
      "[mc]\n"
      "samples = 1234\n"
      "seed = 42\n");
  EXPECT_EQ(cfg.max_cells_per_grid, 50u);
  EXPECT_EQ(cfg.extract.criticality_threshold, 0.1);
  EXPECT_FALSE(cfg.extract.repair_connectivity);
  EXPECT_EQ(cfg.hier.mode, hier::CorrelationMode::kGlobalOnly);
  EXPECT_EQ(cfg.hier.interconnect_delay, 0.02);
  EXPECT_EQ(cfg.hier.pca.max_components, 7u);
  EXPECT_EQ(cfg.mc.samples, 1234u);
  EXPECT_EQ(cfg.mc.seed, 42u);
}

TEST(FlowConfig, RejectsMalformedInput) {
  // Unknown keys.
  EXPECT_THROW((void)Config::from_string("no_such_key = 1\n"), Error);
  EXPECT_THROW((void)Config::from_string("[extract]\ntypo_delta = 0.1\n"),
               Error);
  // Malformed values.
  EXPECT_THROW((void)Config::from_string("extract.delta = fast\n"), Error);
  EXPECT_THROW((void)Config::from_string("mc.samples = -5\n"), Error);
  EXPECT_THROW((void)Config::from_string("mc.samples = 12x\n"), Error);
  EXPECT_THROW(
      (void)Config::from_string("extract.repair_connectivity = maybe\n"),
      Error);
  EXPECT_THROW((void)Config::from_string("hier.mode = flat\n"), Error);
  // Malformed structure.
  EXPECT_THROW((void)Config::from_string("just a line\n"), Error);
  EXPECT_THROW((void)Config::from_string("= 3\n"), Error);
  EXPECT_THROW((void)Config::from_string("extract.delta =\n"), Error);
  EXPECT_THROW((void)Config::from_string("[unterminated\nx = 1\n"), Error);
  EXPECT_THROW((void)Config::from_string("[]\n"), Error);
  // Errors carry the origin and line number.
  try {
    (void)Config::from_string("\n\nbad_key = 1\n");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("<string>:3"), std::string::npos)
        << e.what();
  }
  // Missing files.
  EXPECT_THROW((void)Config::from_file("/nonexistent/flow.cfg"), Error);
}

TEST(FlowConfig, FileRoundTrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "hssta_flow_test.cfg")
          .string();
  {
    std::ofstream os(path);
    os << "[extract]\ndelta = 0.08\n";
  }
  const Config cfg = Config::from_file(path);
  EXPECT_EQ(cfg.extract.criticality_threshold, 0.08);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace hssta::flow
