// Tests for the hierarchical analysis: heterogeneous design grids, the
// variable-replacement identities (R R^T = I, exact module covariance
// preservation, correct cross-module covariance), stitched design-level
// propagation, and the global-only baseline ordering.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "hssta/hier/design.hpp"
#include "hssta/hier/design_grid.hpp"
#include "hssta/hier/hier_ssta.hpp"
#include "hssta/hier/replace.hpp"
#include "hssta/library/cell_library.hpp"
#include "hssta/model/extract.hpp"
#include "hssta/netlist/generate.hpp"
#include "hssta/placement/placement.hpp"
#include "hssta/stats/rng.hpp"
#include "hssta/timing/builder.hpp"
#include "hssta/util/error.hpp"

namespace hssta::hier {
namespace {

using linalg::Matrix;
using timing::CanonicalForm;

/// Shared module under test: a small random circuit, extracted to a model.
class HierFixture : public ::testing::Test {
 protected:
  HierFixture()
      : nl_(netlist::make_random_dag(spec(), lib())),
        pl_(placement::place_rows(nl_)),
        mv_(variation::make_module_variation(
            pl_, nl_.num_gates(), variation::default_90nm_parameters(),
            variation::SpatialCorrelationConfig{})),
        built_(timing::build_timing_graph(nl_, pl_, mv_)),
        extraction_(model::extract_timing_model(
            built_, mv_, "mod", model::compute_boundary(nl_))) {}

  static netlist::RandomDagSpec spec() {
    netlist::RandomDagSpec s;
    s.num_inputs = 8;
    s.num_outputs = 8;
    s.num_gates = 150;
    s.num_pins = 270;
    s.depth = 12;
    s.seed = 77;
    return s;
  }

  static const library::CellLibrary& lib() {
    static const library::CellLibrary l = library::default_90nm();
    return l;
  }

  const model::TimingModel& model() const { return extraction_.model; }

  /// 2x2 abutted instances; outputs of the left column drive inputs of the
  /// right column (the paper's Fig. 7 topology, shrunk).
  HierDesign make_quad() const {
    const placement::Die mdie = model().die();
    HierDesign d("quad", placement::Die{2 * mdie.width, 2 * mdie.height});
    const size_t a = d.add_instance({"a", &model(), {0, 0}, &nl_, &pl_});
    const size_t b =
        d.add_instance({"b", &model(), {0, mdie.height}, &nl_, &pl_});
    const size_t c =
        d.add_instance({"c", &model(), {mdie.width, 0}, &nl_, &pl_});
    const size_t e = d.add_instance(
        {"e", &model(), {mdie.width, mdie.height}, &nl_, &pl_});

    const size_t ni = model().graph().inputs().size();
    const size_t no = model().graph().outputs().size();
    // Cross-connect: a/b outputs feed c/e inputs alternately.
    for (size_t k = 0; k < ni; ++k) {
      d.add_connection({PortRef{k % 2 ? b : a, k % no}, PortRef{c, k}});
      d.add_connection({PortRef{k % 2 ? a : b, (k + 1) % no}, PortRef{e, k}});
    }
    for (size_t k = 0; k < ni; ++k) {
      d.add_primary_input({"pa" + std::to_string(k), {PortRef{a, k}}});
      d.add_primary_input({"pb" + std::to_string(k), {PortRef{b, k}}});
    }
    for (size_t k = 0; k < no; ++k) {
      d.add_primary_output({"qc" + std::to_string(k), PortRef{c, k}});
      d.add_primary_output({"qe" + std::to_string(k), PortRef{e, k}});
    }
    return d;
  }

  netlist::Netlist nl_;
  placement::Placement pl_;
  variation::ModuleVariation mv_;
  timing::BuiltGraph built_;
  model::Extraction extraction_;
};

TEST_F(HierFixture, DesignValidationCatchesMistakes) {
  HierDesign d = make_quad();
  EXPECT_NO_THROW(d.validate());

  // Instance input driven twice.
  HierDesign twice = make_quad();
  twice.add_connection({PortRef{0, 0}, PortRef{2, 0}});
  EXPECT_THROW(twice.validate(), Error);

  // Port out of range.
  HierDesign bad = make_quad();
  bad.add_primary_output({"x", PortRef{0, 999}});
  EXPECT_THROW(bad.validate(), Error);

  // Instance off the die.
  HierDesign off("off", placement::Die{1.0, 1.0});
  off.add_instance({"a", &model(), {0, 0}, nullptr, nullptr});
  off.add_primary_input({"i", {PortRef{0, 0}}});
  off.add_primary_output({"o", PortRef{0, 0}});
  EXPECT_THROW(off.validate(), Error);
}

TEST_F(HierFixture, FarPlacementsFailWithANamedError) {
  // An instance moved far off stretches the bounding-box die, and the
  // filler grid with it: the design grid would need an n x n correlation
  // matrix and an O(n^3) PCA. The grid count is checked before any cast
  // or allocation; a non-finite origin fails validation. (UBSan does not
  // check float-to-integer casts, so the errors themselves are asserted.)
  const placement::Die mdie = model().die();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double far : {1e5, 1e18, 1e300, inf}) {
    SCOPED_TRACE(far);
    HierDesign d("far", placement::Die{far + mdie.width, mdie.height});
    d.add_instance({"a", &model(), {0, 0}, nullptr, nullptr});
    d.add_instance({"b", &model(), {far, 0}, nullptr, nullptr});
    const size_t ni = model().graph().inputs().size();
    const size_t no = model().graph().outputs().size();
    for (size_t k = 0; k < ni; ++k) {
      d.add_connection({PortRef{0, k % no}, PortRef{1, k}});
      const std::string index = std::to_string(k);
      d.add_primary_input({"p" + index, {PortRef{0, k}}});
    }
    d.add_primary_output({"q", PortRef{1, 0}});
    const std::string expected =
        std::isfinite(far)
            ? "above the limit of " + std::to_string(kMaxDesignGrids) +
                  " (hier::kMaxDesignGrids)"
            : std::string("instance origin is not finite: b");
    for (const CorrelationMode mode :
         {CorrelationMode::kReplacement, CorrelationMode::kGlobalOnly}) {
      HierOptions opts;
      opts.mode = mode;
      try {
        (void)analyze_hierarchical(d, opts);
        ADD_FAILURE() << "no error";
      } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find(expected), std::string::npos)
            << e.what();
      }
    }
  }
}

TEST_F(HierFixture, DesignGridComposesModuleGridsPlusFiller) {
  HierDesign d = make_quad();
  const DesignGrid grid = build_design_grid(d);
  const size_t per_module = mv_.partition.num_grids();
  // Abutted 2x2 tiling covers the die: no filler.
  EXPECT_EQ(grid.filler_count, 0u);
  EXPECT_EQ(grid.geometry.size(), 4 * per_module);
  ASSERT_EQ(grid.instance_grids.size(), 4u);
  for (const auto& map : grid.instance_grids)
    EXPECT_EQ(map.size(), per_module);
  // Module grid centers are translated by the instance origin.
  const placement::Point c0 = grid.geometry.centers[grid.instance_grids[2][0]];
  const placement::Point m0 = mv_.partition.center(0);
  EXPECT_NEAR(c0.x, m0.x + model().die().width, 1e-9);
  EXPECT_NEAR(c0.y, m0.y, 1e-9);
  // grid_of resolves module-internal points to that instance's grids.
  const size_t g = grid.grid_of(
      placement::Point{model().die().width + m0.x, m0.y}, d);
  EXPECT_EQ(g, grid.instance_grids[2][0]);
}

TEST_F(HierFixture, DesignGridLeavesFillerForUncoveredArea) {
  const placement::Die mdie = model().die();
  HierDesign d("padded", placement::Die{3 * mdie.width, mdie.height});
  d.add_instance({"a", &model(), {0, 0}, nullptr, nullptr});
  d.add_primary_input({"i", {PortRef{0, 0}}});
  d.add_primary_output({"o", PortRef{0, 0}});
  const DesignGrid grid = build_design_grid(d);
  EXPECT_GT(grid.filler_count, 0u);
  // A point far outside the module maps to a filler grid.
  const size_t g =
      grid.grid_of(placement::Point{2.5 * mdie.width, mdie.height / 2}, d);
  EXPECT_GE(g, grid.geometry.size() - grid.filler_count);
}

TEST_F(HierFixture, ReplacementMatrixIsOrthonormalRows) {
  HierDesign d = make_quad();
  const DesignGrid grid = build_design_grid(d);
  const auto dspace = build_design_space(d, grid);
  for (size_t t = 0; t < 4; ++t) {
    const Matrix r = replacement_matrix(*mv_.space, *dspace,
                                        grid.instance_grids[t]);
    const Matrix rrt = r * r.transposed();
    EXPECT_LT(rrt.max_abs_diff(Matrix::identity(r.rows())), 1e-6)
        << "instance " << t;
  }
}

TEST_F(HierFixture, ReplacementPreservesModuleCovarianceExactly) {
  HierDesign d = make_quad();
  const DesignGrid grid = build_design_grid(d);
  const auto dspace = build_design_space(d, grid);
  const Matrix r =
      replacement_matrix(*mv_.space, *dspace, grid.instance_grids[1]);

  stats::Rng rng(3);
  for (int trial = 0; trial < 20; ++trial) {
    CanonicalForm a(mv_.space->dim()), b(mv_.space->dim());
    a.set_nominal(rng.uniform(0.5, 2.0));
    b.set_nominal(rng.uniform(0.5, 2.0));
    for (size_t k = 0; k < a.dim(); ++k) {
      a.corr()[k] = rng.normal() * 0.05;
      b.corr()[k] = rng.normal() * 0.05;
    }
    a.set_random(rng.uniform(0.0, 0.1));
    b.set_random(rng.uniform(0.0, 0.1));

    const CanonicalForm ra = remap_canonical(a, *mv_.space, *dspace, r);
    const CanonicalForm rb = remap_canonical(b, *mv_.space, *dspace, r);
    EXPECT_NEAR(ra.variance(), a.variance(), 1e-9 + 1e-6 * a.variance());
    EXPECT_NEAR(ra.covariance(rb), a.covariance(b),
                1e-9 + 1e-6 * std::abs(a.covariance(b)));
    EXPECT_DOUBLE_EQ(ra.nominal(), a.nominal());
    EXPECT_DOUBLE_EQ(ra.random(), a.random());
  }
}

TEST_F(HierFixture, ReplacementMatrixHandlesPermutedNonContiguousGrids) {
  // A design geometry where the module's grids sit at *scattered, permuted*
  // positions: reversed module order, a filler grid interleaved before
  // every module center, and the whole block translated (distances are
  // what the correlation profile sees, so translation must not matter).
  // The replacement identities must hold exactly as for the contiguous
  // front-of-list layout build_design_grid produces.
  const variation::GridGeometry& mg = mv_.space->grids();
  variation::GridGeometry dg;
  dg.unit = mg.unit;
  std::vector<size_t> indices(mg.size());
  for (size_t i = 0; i < mg.size(); ++i) {
    const size_t src = mg.size() - 1 - i;  // permuted: reverse order
    dg.centers.push_back(placement::Point{  // non-contiguous: filler first
        1e4 + static_cast<double>(i) * 50.0 * mg.unit, -1e4});
    indices[src] = dg.centers.size();
    dg.centers.push_back(placement::Point{mg.centers[src].x + 1000.0,
                                          mg.centers[src].y + 500.0});
  }
  const variation::VariationSpace dspace(
      mv_.space->parameters(), dg, mv_.space->correlation_model().config());

  const Matrix r = replacement_matrix(*mv_.space, dspace, indices);
  EXPECT_EQ(r.rows(), mv_.space->num_components());
  EXPECT_EQ(r.cols(), dspace.num_components());
  const Matrix rrt = r * r.transposed();
  EXPECT_LT(rrt.max_abs_diff(Matrix::identity(r.rows())), 1e-6);

  stats::Rng rng(11);
  for (int trial = 0; trial < 10; ++trial) {
    CanonicalForm a(mv_.space->dim()), b(mv_.space->dim());
    for (size_t k = 0; k < a.dim(); ++k) {
      a.corr()[k] = rng.normal() * 0.05;
      b.corr()[k] = rng.normal() * 0.05;
    }
    const CanonicalForm ra = remap_canonical(a, *mv_.space, dspace, r);
    const CanonicalForm rb = remap_canonical(b, *mv_.space, dspace, r);
    EXPECT_NEAR(ra.variance(), a.variance(), 1e-9 + 1e-6 * a.variance());
    EXPECT_NEAR(ra.covariance(rb), a.covariance(b),
                1e-9 + 1e-6 * std::abs(a.covariance(b)));
  }

  // Mismatched index count is rejected loudly.
  const std::vector<size_t> short_indices(mg.size() - 1, 0);
  EXPECT_THROW(replacement_matrix(*mv_.space, dspace, short_indices), Error);
}

TEST_F(HierFixture, RepeatedRemapIsDeterministicAndSelfRemapIsIdentity) {
  HierDesign d = make_quad();
  const DesignGrid grid = build_design_grid(d);
  const auto dspace = build_design_space(d, grid);

  // Determinism: recomputing R and re-remapping a form must reproduce the
  // exact same bits — the property the incremental engine leans on when a
  // geometry-compatible swap recomputes an instance's R from scratch.
  const Matrix r1 =
      replacement_matrix(*mv_.space, *dspace, grid.instance_grids[2]);
  const Matrix r2 =
      replacement_matrix(*mv_.space, *dspace, grid.instance_grids[2]);
  EXPECT_EQ(r1.max_abs_diff(r2), 0.0);

  stats::Rng rng(23);
  CanonicalForm a(mv_.space->dim());
  a.set_nominal(1.25);
  for (size_t k = 0; k < a.dim(); ++k) a.corr()[k] = rng.normal() * 0.05;
  a.set_random(0.03);
  const CanonicalForm once = remap_canonical(a, *mv_.space, *dspace, r1);
  const CanonicalForm again = remap_canonical(a, *mv_.space, *dspace, r2);
  EXPECT_TRUE(once == again);

  // Module -> module "round trip": remapping within the module's own space
  // (identity grid mapping) is the identity transform up to PCA rounding —
  // R = whitening * loadings ~= I — and exactly preserves nominal/random.
  std::vector<size_t> self_indices(mv_.space->num_grids());
  for (size_t i = 0; i < self_indices.size(); ++i) self_indices[i] = i;
  const Matrix self_r =
      replacement_matrix(*mv_.space, *mv_.space, self_indices);
  EXPECT_LT(self_r.max_abs_diff(Matrix::identity(self_r.rows())), 1e-8);
  const CanonicalForm same = remap_canonical(a, *mv_.space, *mv_.space,
                                             self_r);
  EXPECT_DOUBLE_EQ(same.nominal(), a.nominal());
  EXPECT_DOUBLE_EQ(same.random(), a.random());
  for (size_t k = 0; k < a.dim(); ++k)
    EXPECT_NEAR(same.corr()[k], a.corr()[k], 1e-9) << k;
}

TEST_F(HierFixture, CrossInstanceCovarianceMatchesCorrelationModel) {
  // Two forms living in different instances: their design-space covariance
  // must equal the physical grid-to-grid correlation model value.
  HierDesign d = make_quad();
  const DesignGrid grid = build_design_grid(d);
  const auto dspace = build_design_space(d, grid);
  const Matrix r0 =
      replacement_matrix(*mv_.space, *dspace, grid.instance_grids[0]);
  const Matrix r2 =
      replacement_matrix(*mv_.space, *dspace, grid.instance_grids[2]);

  // Unit deviation of parameter 0 for a cell in module grid g, per instance.
  const size_t g_mod = 0;
  CanonicalForm unit(mv_.space->dim());
  mv_.space->accumulate(0, g_mod, 1.0, unit.corr());
  const CanonicalForm in0 = remap_canonical(unit, *mv_.space, *dspace, r0);
  const CanonicalForm in2 = remap_canonical(unit, *mv_.space, *dspace, r2);

  const variation::ProcessParameter& p = mv_.space->parameters().at(0);
  const double dist = grid.geometry.distance(grid.instance_grids[0][g_mod],
                                             grid.instance_grids[2][g_mod]);
  const double expected =
      p.sigma_global() * p.sigma_global() +
      p.sigma_local() * p.sigma_local() *
          dspace->correlation_model().local_rho(dist);
  EXPECT_NEAR(in0.covariance(in2), expected, 1e-9);
}

TEST_F(HierFixture, SingleInstanceDesignMatchesModuleAnalysis) {
  // One instance covering the die: the design-level result must reproduce
  // the module-level analysis of the model graph.
  HierDesign d("single", model().die());
  d.add_instance({"m", &model(), {0, 0}, &nl_, &pl_});
  const size_t ni = model().graph().inputs().size();
  const size_t no = model().graph().outputs().size();
  for (size_t k = 0; k < ni; ++k)
    d.add_primary_input({"i" + std::to_string(k), {PortRef{0, k}}});
  for (size_t k = 0; k < no; ++k)
    d.add_primary_output({"o" + std::to_string(k), PortRef{0, k}});

  const HierResult hier = analyze_hierarchical(d);
  const core::SstaResult module_level = core::run_ssta(model().graph());
  EXPECT_NEAR(hier.delay().nominal(), module_level.delay.nominal(), 1e-9);
  EXPECT_NEAR(hier.delay().sigma(), module_level.delay.sigma(), 1e-7);
}

TEST_F(HierFixture, ReplacementRaisesSigmaVersusGlobalOnly) {
  // Abutted identical modules are strongly correlated; sharing only the
  // global variable underestimates the design-level spread.
  HierDesign d = make_quad();
  HierOptions repl;
  HierOptions glob;
  glob.mode = CorrelationMode::kGlobalOnly;
  const HierResult a = analyze_hierarchical(d, repl);
  const HierResult b = analyze_hierarchical(d, glob);
  EXPECT_GT(a.delay().sigma(), 1.05 * b.delay().sigma());
  // Means stay in the same ballpark (replacement runs a little higher: the
  // correlated path sums raise each output's variance, which raises the
  // mean of the output max; the MC cross-check lives in hier_mc tests).
  EXPECT_NEAR(a.delay().nominal(), b.delay().nominal(),
              0.10 * b.delay().nominal());
  // Global-only mode has no design space.
  EXPECT_EQ(b.design_space, nullptr);
  ASSERT_NE(a.design_space, nullptr);
}

TEST_F(HierFixture, LoadAwareBoundaryAddsConnectionDelay) {
  HierDesign d = make_quad();
  HierOptions base;
  HierOptions aware;
  aware.load_aware_boundary = true;
  const HierResult plain = analyze_hierarchical(d, base);
  const HierResult loaded = analyze_hierarchical(d, aware);
  EXPECT_GT(loaded.delay().nominal(), plain.delay().nominal());
}

TEST_F(HierFixture, InterconnectDelayShiftsMean) {
  HierDesign d = make_quad();
  HierOptions opts;
  opts.interconnect_delay = 0.1;
  const HierResult plain = analyze_hierarchical(d);
  const HierResult wired = analyze_hierarchical(d, opts);
  // Two module levels -> one connection on every path: +0.1 ns.
  EXPECT_NEAR(wired.delay().nominal(), plain.delay().nominal() + 0.1, 0.02);
}

TEST_F(HierFixture, MismatchedPitchIsRejected) {
  // A second model with a different grid pitch cannot be mixed in.
  netlist::RandomDagSpec s = spec();
  s.seed = 123;
  s.num_gates = 40;
  s.num_pins = 70;
  s.depth = 6;
  const netlist::Netlist nl2 = netlist::make_random_dag(s, lib());
  const placement::Placement pl2 = placement::place_rows(nl2);
  const variation::ModuleVariation mv2 = variation::make_module_variation(
      pl2, nl2.num_gates(), variation::default_90nm_parameters(),
      variation::SpatialCorrelationConfig{});
  const timing::BuiltGraph built2 = timing::build_timing_graph(nl2, pl2, mv2);
  const model::Extraction ex2 = model::extract_timing_model(
      built2, mv2, "tiny", model::compute_boundary(nl2));

  const placement::Die big{model().die().width + ex2.model.die().width + 1,
                           std::max(model().die().height,
                                    ex2.model.die().height)};
  HierDesign d("mixed", big);
  d.add_instance({"a", &model(), {0, 0}, nullptr, nullptr});
  d.add_instance(
      {"b", &ex2.model, {model().die().width + 1, 0}, nullptr, nullptr});
  d.add_primary_input({"i", {PortRef{0, 0}}});
  d.add_primary_output({"o", PortRef{0, 0}});
  EXPECT_THROW((void)build_design_grid(d), Error);
}

}  // namespace
}  // namespace hssta::hier
