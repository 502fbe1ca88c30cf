// Property-based sweeps (TEST_P) over randomized inputs: invariants that
// must hold for every seed/shape, not just hand-picked fixtures.

#include <gtest/gtest.h>

#include <cmath>

#include "fixtures.hpp"
#include "hssta/core/criticality.hpp"
#include "hssta/core/io_delays.hpp"
#include "hssta/core/ssta.hpp"
#include "hssta/hier/design_grid.hpp"
#include "hssta/hier/replace.hpp"
#include "hssta/model/reduce.hpp"
#include "hssta/stats/rng.hpp"
#include "hssta/timing/propagate.hpp"
#include "hssta/timing/sta.hpp"
#include "hssta/timing/statops.hpp"
#include "oracles.hpp"

namespace hssta {
namespace {

using testing::ModuleUnderTest;
using timing::CanonicalForm;
using timing::EdgeId;
using timing::VertexId;

CanonicalForm random_form(size_t dim, stats::Rng& rng, double scale = 0.1) {
  CanonicalForm f(dim);
  f.set_nominal(rng.uniform(0.5, 3.0));
  for (size_t k = 0; k < dim; ++k) f.corr()[k] = scale * rng.normal();
  f.set_random(rng.uniform(0.0, scale));
  return f;
}

class MaxAlgebra : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MaxAlgebra, InvariantsOnRandomForms) {
  stats::Rng rng(GetParam());
  for (int trial = 0; trial < 200; ++trial) {
    const size_t dim = 1 + rng.uniform_index(12);
    const CanonicalForm a = random_form(dim, rng);
    const CanonicalForm b = random_form(dim, rng);
    const CanonicalForm m = timing::statistical_max(a, b);

    // Mean dominates both inputs; TP complements; commutativity.
    EXPECT_GE(m.nominal(), std::max(a.nominal(), b.nominal()) - 1e-12);
    const double tp = timing::tightness_probability(a, b);
    EXPECT_GE(tp, 0.0);
    EXPECT_LE(tp, 1.0);
    EXPECT_NEAR(tp + timing::tightness_probability(b, a), 1.0, 1e-12);
    const CanonicalForm ba = timing::statistical_max(b, a);
    EXPECT_NEAR(m.nominal(), ba.nominal(), 1e-12);
    EXPECT_NEAR(m.sigma(), ba.sigma(), 1e-12);

    // Monotonicity: max{A + c, B + c} = max{A, B} + c for a constant.
    const double c = rng.uniform(-1.0, 1.0);
    CanonicalForm ac = a, bc = b;
    ac.add_nominal(c);
    bc.add_nominal(c);
    const CanonicalForm mc = timing::statistical_max(ac, bc);
    EXPECT_NEAR(mc.nominal(), m.nominal() + c, 1e-9);
    EXPECT_NEAR(mc.sigma(), m.sigma(), 1e-9);

    // Sum is exact: moments add / rss.
    const CanonicalForm s = a + b;
    EXPECT_NEAR(s.variance(),
                a.variance() + b.variance() + 2.0 * a.covariance(b), 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaxAlgebra, ::testing::Values(1, 2, 3, 4, 5));

class CriticalityProperties : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CriticalityProperties, PartitionAndBoundsOnRandomCircuits) {
  netlist::RandomDagSpec spec;
  spec.num_inputs = 5 + GetParam() % 4;
  spec.num_outputs = 3 + GetParam() % 3;
  spec.num_gates = 40 + 10 * (GetParam() % 5);
  spec.num_pins = spec.num_gates * 7 / 4;
  spec.depth = 6 + GetParam() % 4;
  spec.seed = GetParam() * 1000 + 17;
  const netlist::Netlist nl =
      netlist::make_random_dag(spec, testing::default_lib());
  const placement::Placement pl = placement::place_rows(nl);
  const variation::ModuleVariation mv = variation::make_module_variation(
      pl, nl.num_gates(), variation::default_90nm_parameters(),
      variation::SpatialCorrelationConfig{});
  const timing::BuiltGraph built = timing::build_timing_graph(nl, pl, mv);
  const timing::TimingGraph& g = built.graph;

  const core::CriticalityResult crit = core::compute_criticality(g);
  const core::DelayMatrix& m = crit.io_delays;

  // Bounds on cm.
  for (EdgeId e = 0; e < g.num_edge_slots(); ++e) {
    EXPECT_GE(crit.max_criticality[e], 0.0);
    EXPECT_LE(crit.max_criticality[e], 1.0);
  }

  // Per-pair partition at every vertex with positive criticality mass:
  // the fanin criticalities of a vertex sum to the mass flowing out of it.
  for (size_t i = 0; i < g.inputs().size(); ++i) {
    for (size_t j = 0; j < g.outputs().size(); ++j) {
      if (!m.is_valid(i, j)) continue;
      const std::vector<double> c = core::pair_criticalities(g, i, j);
      // Sum over any input cut (here: the fanout edges of the input) is 1.
      double out_sum = 0.0;
      for (EdgeId e : g.vertex(g.inputs()[i]).fanout) out_sum += c[e];
      EXPECT_NEAR(out_sum, 1.0, 1e-9) << "pair " << i << "," << j;
      break;  // one output per input keeps the sweep fast
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CriticalityProperties,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

class ReductionProperties : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ReductionProperties, MergesPreserveIoDelaysWithinTolerance) {
  const ModuleUnderTest m(testing::small_module_spec(500 + GetParam()));
  timing::TimingGraph g = m.built.graph;  // working copy
  const core::DelayMatrix before = core::all_pairs_io_delays(g);
  const model::ReduceStats stats = model::reduce_graph(g);
  EXPECT_GT(stats.serial_merges, 0u);
  const core::DelayMatrix after = core::all_pairs_io_delays(g);
  for (size_t i = 0; i < before.num_inputs(); ++i)
    for (size_t j = 0; j < before.num_outputs(); ++j) {
      ASSERT_EQ(before.is_valid(i, j), after.is_valid(i, j));
      if (!before.is_valid(i, j)) continue;
      // Merges are exact on trees; reconvergent serial merges duplicate
      // aggregated randoms and reorder max folds, leaving ~1% residue.
      EXPECT_NEAR(after.at(i, j).nominal(), before.at(i, j).nominal(),
                  0.015 * before.at(i, j).nominal());
      EXPECT_NEAR(after.at(i, j).sigma(), before.at(i, j).sigma(),
                  0.04 * before.at(i, j).sigma() + 1e-6);
    }
  g.validate();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReductionProperties,
                         ::testing::Values(1, 2, 3, 4));

class ReplacementProperties : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ReplacementProperties, CovariancePreservedForRandomPlacements) {
  const ModuleUnderTest m(testing::small_module_spec(700 + GetParam()));
  stats::Rng rng(GetParam());

  // Random non-overlapping 2x1 placement on a padded die.
  const placement::Die mdie = m.model().die();
  hier::HierDesign d("pair", placement::Die{3 * mdie.width, 2 * mdie.height});
  const double dx = rng.uniform(0.0, mdie.width);
  const double dy = rng.uniform(0.0, mdie.height);
  d.add_instance({"a", &m.model(), {0, 0}, nullptr, nullptr});
  d.add_instance(
      {"b", &m.model(), {mdie.width + dx, dy}, nullptr, nullptr});
  d.add_primary_input({"i", {hier::PortRef{0, 0}}});
  d.add_primary_output({"o", hier::PortRef{0, 0}});

  const hier::DesignGrid grid = hier::build_design_grid(d);
  const auto dspace = hier::build_design_space(d, grid);
  const linalg::Matrix r0 = hier::replacement_matrix(
      *m.variation.space, *dspace, grid.instance_grids[0]);
  const linalg::Matrix r1 = hier::replacement_matrix(
      *m.variation.space, *dspace, grid.instance_grids[1]);

  // R R^T = I for both instances regardless of placement.
  EXPECT_LT((r0 * r0.transposed())
                .max_abs_diff(linalg::Matrix::identity(r0.rows())),
            1e-6);
  EXPECT_LT((r1 * r1.transposed())
                .max_abs_diff(linalg::Matrix::identity(r1.rows())),
            1e-6);

  // Cross-instance covariance equals the physical correlation model for
  // sampled grid pairs.
  for (int trial = 0; trial < 5; ++trial) {
    const size_t ga = rng.uniform_index(m.variation.partition.num_grids());
    const size_t gb = rng.uniform_index(m.variation.partition.num_grids());
    CanonicalForm ua(m.variation.space->dim()), ub(m.variation.space->dim());
    m.variation.space->accumulate(0, ga, 1.0, ua.corr());
    m.variation.space->accumulate(0, gb, 1.0, ub.corr());
    const CanonicalForm da =
        hier::remap_canonical(ua, *m.variation.space, *dspace, r0);
    const CanonicalForm db =
        hier::remap_canonical(ub, *m.variation.space, *dspace, r1);
    const auto& p = m.variation.space->parameters().at(0);
    const double dist = grid.geometry.distance(grid.instance_grids[0][ga],
                                               grid.instance_grids[1][gb]);
    const double expected =
        p.sigma_global() * p.sigma_global() +
        p.sigma_local() * p.sigma_local() *
            dspace->correlation_model().local_rho(dist);
    EXPECT_NEAR(da.covariance(db), expected, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReplacementProperties,
                         ::testing::Values(1, 2, 3, 4, 5));

class PropagationProperties : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PropagationProperties, ArrivalsDominatePathDelaysAndMatchSampling) {
  const ModuleUnderTest m(testing::small_module_spec(900 + GetParam()));
  const timing::TimingGraph& g = m.built.graph;
  const core::SstaResult ssta = core::run_ssta(g);

  // Nominal arrival at each vertex >= nominal longest path (Clark bumps
  // only add mass).
  const auto nominal = timing::corner_edge_delays(g, 0.0);
  const timing::ScalarArrivals lp = timing::longest_path(g, nominal);
  for (VertexId v = 0; v < g.num_vertex_slots(); ++v) {
    if (!g.vertex_alive(v) || !ssta.arrivals.valid[v]) continue;
    EXPECT_GE(ssta.arrivals.at(v).nominal(), lp.time[v] - 1e-9);
  }

  // Canonical sampling agrees with the analytic circuit delay.
  stats::Rng rng(GetParam() * 13 + 7);
  const auto mcd = mc::sample_canonical_delay(g, 3000, rng);
  EXPECT_NEAR(ssta.delay.nominal(), mcd.mean(), 0.025 * mcd.mean());
  EXPECT_NEAR(ssta.delay.sigma(), mcd.stddev(), 0.2 * mcd.stddev());
}

INSTANTIATE_TEST_SUITE_P(Seeds, PropagationProperties,
                         ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace hssta
