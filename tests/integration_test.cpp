// End-to-end integration tests: the full pipeline (synthesize -> place ->
// variation -> graph -> extract -> hierarchical analysis -> Monte Carlo
// cross-check) on several ISCAS85-class circuits, plus the .bench interop
// path and the umbrella header.

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "fixtures.hpp"
#include "hssta/hssta.hpp"  // umbrella: everything below must resolve

namespace hssta {
namespace {

class IscasPipeline : public ::testing::TestWithParam<const char*> {};

TEST_P(IscasPipeline, ExtractionContractHoldsOnRealScaleCircuits) {
  const char* name = GetParam();
  const library::CellLibrary& lib = testing::default_lib();
  const netlist::Netlist nl = netlist::make_iscas85(name, lib);
  const placement::Placement pl = placement::place_rows(nl);
  const variation::ModuleVariation mv = variation::make_module_variation(
      pl, nl.num_gates(), variation::default_90nm_parameters(),
      variation::SpatialCorrelationConfig{});
  const timing::BuiltGraph built = timing::build_timing_graph(nl, pl, mv);
  const model::Extraction ex = model::extract_timing_model(
      built, mv, name, model::compute_boundary(nl));

  // Size accounting consistent with the netlist (paper's Table I columns).
  EXPECT_EQ(ex.stats.original_vertices,
            nl.primary_inputs().size() + nl.num_gates());
  EXPECT_EQ(ex.stats.original_edges, nl.num_pins());
  // Meaningful compression on every circuit of the suite.
  EXPECT_LT(ex.stats.edge_ratio(), 0.60) << name;
  EXPECT_LT(ex.stats.vertex_ratio(), 0.60) << name;

  // Contract: connectivity identical, means within 2.5%, sigmas within 6%.
  const core::DelayMatrix original = core::all_pairs_io_delays(built.graph);
  const core::DelayMatrix modeled = ex.model.io_delays();
  double worst_mean = 0.0, worst_sigma = 0.0;
  for (size_t i = 0; i < original.num_inputs(); ++i)
    for (size_t j = 0; j < original.num_outputs(); ++j) {
      ASSERT_EQ(original.is_valid(i, j), modeled.is_valid(i, j));
      if (!original.is_valid(i, j)) continue;
      const double m = original.at(i, j).nominal();
      const double s = original.at(i, j).sigma();
      if (m > 1e-9)
        worst_mean = std::max(
            worst_mean, std::abs(modeled.at(i, j).nominal() - m) / m);
      if (s > 1e-9)
        worst_sigma = std::max(
            worst_sigma, std::abs(modeled.at(i, j).sigma() - s) / s);
    }
  EXPECT_LT(worst_mean, 0.025) << name;
  EXPECT_LT(worst_sigma, 0.06) << name;

  // Round-trip the model through its serialization format.
  std::ostringstream os;
  ex.model.save(os);
  std::istringstream is(os.str());
  const model::TimingModel loaded = model::TimingModel::load(is);
  EXPECT_EQ(loaded.graph().num_live_edges(),
            ex.model.graph().num_live_edges());
}

INSTANTIATE_TEST_SUITE_P(Suite, IscasPipeline,
                         ::testing::Values("c432", "c499", "c880", "c1355"));

TEST(Integration, BenchInteropPipeline) {
  // Write a generated circuit to .bench, read it back, run both through
  // the full analysis: results must agree exactly (same structure).
  const library::CellLibrary& lib = testing::default_lib();
  const netlist::Netlist original = netlist::make_ripple_adder(6, lib);
  const netlist::Netlist reread =
      netlist::read_bench_string(netlist::write_bench_string(original), lib,
                                 original.name());
  ASSERT_EQ(original.num_gates(), reread.num_gates());

  auto analyze = [&](const netlist::Netlist& nl) {
    const placement::Placement pl = placement::place_rows(nl);
    const variation::ModuleVariation mv = variation::make_module_variation(
        pl, nl.num_gates(), variation::default_90nm_parameters(),
        variation::SpatialCorrelationConfig{});
    const timing::BuiltGraph built = timing::build_timing_graph(nl, pl, mv);
    return core::run_ssta(built.graph).delay;
  };
  const timing::CanonicalForm a = analyze(original);
  const timing::CanonicalForm b = analyze(reread);
  EXPECT_NEAR(a.nominal(), b.nominal(), 1e-12);
  EXPECT_NEAR(a.sigma(), b.sigma(), 1e-12);
}

TEST(Integration, HierarchicalPipelineAgainstMonteCarloTwoModuleTypes) {
  // Two *different* modules sharing a grid pitch cannot generally be built
  // (the pitch is derived from the die), so the supported mixed case is
  // several instances of one module plus interconnect options; exercise
  // the full hier pipeline with both extensions enabled.
  const testing::ModuleUnderTest m(testing::small_module_spec(301));
  hier::HierDesign d = testing::make_quad_design(m);

  hier::HierOptions opts;
  opts.load_aware_boundary = true;
  opts.interconnect_delay = 0.02;
  const hier::HierResult hier = hier::analyze_hierarchical(d, opts);

  mc::FlattenOptions fopts;
  fopts.load_aware_boundary = true;
  fopts.interconnect_delay = 0.02;
  stats::Rng rng(9);
  const auto mcd = mc::flatten_design(d, hier::build_design_grid(d), fopts)
                       .sample_delay(5000, rng);

  EXPECT_NEAR(hier.delay().nominal(), mcd.mean(), 0.035 * mcd.mean());
  EXPECT_NEAR(hier.delay().sigma(), mcd.stddev(), 0.15 * mcd.stddev());
}

TEST(Integration, ReducedSampleQuadMatchesAcrossSeeds) {
  // The hierarchical result is deterministic; MC varies only via its seed.
  const testing::ModuleUnderTest m(testing::small_module_spec(302));
  const hier::HierDesign d = testing::make_quad_design(m);
  const hier::HierResult h1 = hier::analyze_hierarchical(d);
  const hier::HierResult h2 = hier::analyze_hierarchical(d);
  EXPECT_DOUBLE_EQ(h1.delay().nominal(), h2.delay().nominal());
  EXPECT_DOUBLE_EQ(h1.delay().sigma(), h2.delay().sigma());

  const mc::FlatCircuit fc = mc::flatten_design(d, hier::build_design_grid(d));
  stats::Rng rng1(1);
  stats::Rng rng2(2);
  const auto mc1 = fc.sample_delay(1500, rng1);
  const auto mc2 = fc.sample_delay(1500, rng2);
  EXPECT_NE(mc1.mean(), mc2.mean());
  EXPECT_NEAR(mc1.mean(), mc2.mean(), 0.05 * mc1.mean());
}

TEST(Integration, CornerBoundsSstaQuantilesOnSuite) {
  // 3-sigma corner must upper-bound the SSTA 99.87% quantile (corner STA
  // stacks pessimism); nominal STA must lower-bound the SSTA mean (Clark
  // maxima only add positive bumps).
  for (const char* name : {"c432", "c880"}) {
    const library::CellLibrary& lib = testing::default_lib();
    const netlist::Netlist nl = netlist::make_iscas85(name, lib);
    const placement::Placement pl = placement::place_rows(nl);
    const variation::ModuleVariation mv = variation::make_module_variation(
        pl, nl.num_gates(), variation::default_90nm_parameters(),
        variation::SpatialCorrelationConfig{});
    const timing::BuiltGraph built = timing::build_timing_graph(nl, pl, mv);
    const core::SstaResult ssta = core::run_ssta(built.graph);
    EXPECT_GE(timing::corner_delay(built.graph, 3.0),
              ssta.delay.quantile(0.9987))
        << name;
    EXPECT_LE(timing::corner_delay(built.graph, 0.0), ssta.delay.nominal())
        << name;
  }
}

}  // namespace
}  // namespace hssta
