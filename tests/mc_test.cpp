// Tests for the Monte Carlo engines, closing the modelling loop:
//  * physical (Cholesky) sampling agrees with canonical (PCA) sampling,
//  * SSTA moments match the physical ground truth,
//  * per-IO-pair MC matches the canonical delay matrix,
//  * the hierarchical replacement tracks flattened-design MC far better
//    than the global-only baseline (the paper's Fig. 7 claim).

#include <gtest/gtest.h>

#include <cmath>

#include "fixtures.hpp"
#include "hssta/core/io_delays.hpp"
#include "hssta/core/ssta.hpp"
#include "hssta/hier/hier_ssta.hpp"
#include "hssta/mc/flat_mc.hpp"
#include "hssta/mc/hier_mc.hpp"
#include "hssta/stats/normal.hpp"
#include "hssta/util/error.hpp"
#include "oracles.hpp"

namespace hssta::mc {
namespace {

using testing::ModuleUnderTest;

class McModule : public ::testing::Test {
 protected:
  McModule() : m_(testing::small_module_spec(31)) {}
  ModuleUnderTest m_;
};

TEST_F(McModule, PhysicalAndCanonicalSamplersAgree) {
  const FlatCircuit fc =
      FlatCircuit::from_module(m_.built, m_.netlist, m_.variation);
  stats::Rng r1(5), r2(6);
  const auto physical = fc.sample_delay(6000, r1);
  const auto canonical = sample_canonical_delay(m_.built.graph, 6000, r2);
  // Same underlying statistical model through two factorizations.
  EXPECT_NEAR(physical.mean(), canonical.mean(), 0.01 * canonical.mean());
  EXPECT_NEAR(physical.stddev(), canonical.stddev(),
              0.08 * canonical.stddev());
  EXPECT_LT(physical.ks_distance(canonical), 0.05);
}

TEST_F(McModule, SstaMatchesPhysicalGroundTruth) {
  const FlatCircuit fc =
      FlatCircuit::from_module(m_.built, m_.netlist, m_.variation);
  stats::Rng rng(7);
  const auto mc = fc.sample_delay(8000, rng);
  const core::SstaResult ssta = core::run_ssta(m_.built.graph);
  EXPECT_NEAR(ssta.delay.nominal(), mc.mean(), 0.02 * mc.mean());
  EXPECT_NEAR(ssta.delay.sigma(), mc.stddev(), 0.15 * mc.stddev());
  // The Gaussian SSTA CDF tracks the sampled CDF.
  const double ks = mc.ks_distance(
      [&](double x) { return ssta.delay.cdf(x); });
  EXPECT_LT(ks, 0.08);
}

TEST_F(McModule, IoStatsMatchCanonicalDelayMatrix) {
  const FlatCircuit fc =
      FlatCircuit::from_module(m_.built, m_.netlist, m_.variation);
  stats::Rng rng(11);
  const IoStats st = fc.sample_io_delays(3000, rng);
  const core::DelayMatrix dm = core::all_pairs_io_delays(m_.built.graph);
  ASSERT_EQ(st.num_inputs, dm.num_inputs());
  ASSERT_EQ(st.num_outputs, dm.num_outputs());
  double worst_mean = 0.0;
  for (size_t i = 0; i < st.num_inputs; ++i)
    for (size_t j = 0; j < st.num_outputs; ++j) {
      ASSERT_EQ(st.is_valid(i, j), dm.is_valid(i, j));
      if (!st.is_valid(i, j)) continue;
      worst_mean = std::max(worst_mean,
                            std::abs(dm.at(i, j).nominal() -
                                     st.mean_at(i, j)) /
                                st.mean_at(i, j));
    }
  // Canonical IO delays within ~2% of sampled truth (paper: merr < 1.21%).
  EXPECT_LT(worst_mean, 0.02);
}

TEST_F(McModule, SamplingIsSeedDeterministic) {
  const FlatCircuit fc =
      FlatCircuit::from_module(m_.built, m_.netlist, m_.variation);
  stats::Rng a(42), b(42), c(43);
  const auto d1 = fc.sample_delay(200, a);
  const auto d2 = fc.sample_delay(200, b);
  const auto d3 = fc.sample_delay(200, c);
  EXPECT_EQ(d1.sorted(), d2.sorted());
  EXPECT_NE(d1.sorted(), d3.sorted());
}

TEST_F(McModule, FlatCircuitValidatesArcs) {
  FlatCircuit fc(variation::default_90nm_parameters(),
                 linalg::Matrix::identity(2), 0.15);
  const auto a = fc.add_vertex("a", true, false);
  const auto z = fc.add_vertex("z", false, true);
  EXPECT_THROW(fc.add_arc(a, z, 1.0, 0.0, 7, {0.9, 0.3, 0.4}), Error);
  EXPECT_THROW(fc.add_arc(a, z, 1.0, 0.0, 0, {0.9}), Error);
  fc.add_arc(a, z, 1.0, 0.0, 1, {0.9, 0.3, 0.4});
  stats::Rng rng(1);
  EXPECT_THROW((void)fc.sample_delay(0, rng), Error);
  const auto d = fc.sample_delay(500, rng);
  EXPECT_NEAR(d.mean(), 1.0, 0.05);
}

TEST(McHier, ReplacementTracksFlattenedTruthGlobalOnlyDoesNot) {
  // The paper's Fig. 7 experiment at test scale.
  const ModuleUnderTest m(testing::small_module_spec(77));
  const hier::HierDesign design = testing::make_quad_design(m);

  stats::Rng rng(2009);
  const auto mc = flatten_design(design, hier::build_design_grid(design))
                      .sample_delay(6000, rng);

  hier::HierOptions repl;
  hier::HierOptions glob;
  glob.mode = hier::CorrelationMode::kGlobalOnly;
  const hier::HierResult a = hier::analyze_hierarchical(design, repl);
  const hier::HierResult b = hier::analyze_hierarchical(design, glob);

  // Mean: both close; sigma: replacement must capture the cross-module
  // correlation that global-only misses.
  EXPECT_NEAR(a.delay().nominal(), mc.mean(), 0.03 * mc.mean());
  EXPECT_NEAR(a.delay().sigma(), mc.stddev(), 0.15 * mc.stddev());
  const double err_repl = std::abs(a.delay().sigma() - mc.stddev());
  const double err_glob = std::abs(b.delay().sigma() - mc.stddev());
  EXPECT_LT(err_repl, err_glob);

  // Distribution-level: KS of the Gaussian fit against the sampled CDF.
  const double ks_repl =
      mc.ks_distance([&](double x) { return a.delay().cdf(x); });
  const double ks_glob =
      mc.ks_distance([&](double x) { return b.delay().cdf(x); });
  EXPECT_LT(ks_repl, ks_glob);
  EXPECT_LT(ks_repl, 0.10);
}

TEST(McHier, FlattenRequiresNetlists) {
  const ModuleUnderTest m(testing::small_module_spec(78));
  hier::HierDesign d("bare", m.model().die());
  d.add_instance({"a", &m.model(), {0, 0}, nullptr, nullptr});
  d.add_primary_input({"i", {hier::PortRef{0, 0}}});
  d.add_primary_output({"o", hier::PortRef{0, 0}});
  const hier::DesignGrid grid = hier::build_design_grid(d);
  EXPECT_THROW((void)flatten_design(d, grid), Error);
}

TEST(McHier, LoadAwareFlatteningShiftsMean) {
  const ModuleUnderTest m(testing::small_module_spec(79));
  const hier::HierDesign design = testing::make_quad_design(m);
  FlattenOptions plain;
  FlattenOptions aware;
  aware.load_aware_boundary = true;
  const hier::DesignGrid grid = hier::build_design_grid(design);
  stats::Rng rng0(3);
  stats::Rng rng1(3);
  const auto d0 = flatten_design(design, grid, plain).sample_delay(2000, rng0);
  const auto d1 = flatten_design(design, grid, aware).sample_delay(2000, rng1);
  EXPECT_GT(d1.mean(), d0.mean());
}

}  // namespace
}  // namespace hssta::mc
