// Tests for statistical critical-path reporting.

#include <gtest/gtest.h>

#include <cmath>

#include "fixtures.hpp"
#include "hssta/core/paths.hpp"
#include "hssta/core/ssta.hpp"
#include "hssta/timing/statops.hpp"
#include "hssta/util/error.hpp"

namespace hssta::core {
namespace {

using timing::CanonicalForm;
using timing::TimingGraph;
using timing::VertexId;

CanonicalForm form(double nominal, double random) {
  CanonicalForm f(1);
  f.set_nominal(nominal);
  f.set_random(random);
  return f;
}

TEST(Paths, ChainHasOneFullyCriticalPath) {
  TimingGraph g(1);
  const VertexId a = g.add_vertex("a", true);
  const VertexId m = g.add_vertex("m");
  const VertexId z = g.add_vertex("z", false, true);
  g.add_edge(a, m, form(1.0, 0.1));
  g.add_edge(m, z, form(2.0, 0.1));
  const auto paths = report_critical_paths(g, 5);
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_DOUBLE_EQ(paths[0].criticality, 1.0);
  EXPECT_DOUBLE_EQ(paths[0].delay.nominal(), 3.0);
  EXPECT_EQ(paths[0].vertices.front(), a);
  EXPECT_EQ(paths[0].vertices.back(), z);
  EXPECT_EQ(paths[0].format(g), "a -> m -> z");
}

TEST(Paths, DiamondSplitsByTightness) {
  TimingGraph g(1);
  const VertexId a = g.add_vertex("a", true);
  const VertexId m1 = g.add_vertex("m1");
  const VertexId m2 = g.add_vertex("m2");
  const VertexId z = g.add_vertex("z", false, true);
  g.add_edge(a, m1, form(1.2, 0.15));
  g.add_edge(a, m2, form(1.0, 0.15));
  g.add_edge(m1, z, form(1.0, 0.01));
  g.add_edge(m2, z, form(1.0, 0.01));
  const auto paths = report_critical_paths(g, 5);
  ASSERT_EQ(paths.size(), 2u);
  // Descending criticality; partition sums to 1.
  EXPECT_GE(paths[0].criticality, paths[1].criticality);
  EXPECT_NEAR(paths[0].criticality + paths[1].criticality, 1.0, 1e-9);
  // The slower branch leads.
  EXPECT_EQ(paths[0].vertices[1], m1);
  EXPECT_GT(paths[0].criticality, 0.6);
}

TEST(Paths, KLimitsAndOrdering) {
  const testing::ModuleUnderTest m(testing::small_module_spec(41));
  const auto top3 = report_critical_paths(m.built.graph, 3);
  const auto top10 = report_critical_paths(m.built.graph, 10);
  ASSERT_EQ(top3.size(), 3u);
  ASSERT_EQ(top10.size(), 10u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(top3[i].criticality, top10[i].criticality);
    EXPECT_EQ(top3[i].edges, top10[i].edges);
  }
  double sum = 0.0;
  for (size_t i = 0; i < top10.size(); ++i) {
    if (i > 0) {
      EXPECT_LE(top10[i].criticality, top10[i - 1].criticality + 1e-12);
    }
    sum += top10[i].criticality;
    // A path's delay form equals the sum of its edge delays.
    CanonicalForm check(m.built.graph.dim());
    for (timing::EdgeId e : top10[i].edges) check += m.built.graph.edge(e).delay;
    EXPECT_NEAR(check.nominal(), top10[i].delay.nominal(), 1e-12);
  }
  EXPECT_LE(sum, 1.0 + 1e-6);

  // The top path's mean delay is close to (and below) the circuit delay
  // mean, which includes max bumps over all paths.
  const core::SstaResult ssta = core::run_ssta(m.built.graph);
  EXPECT_LT(top10[0].delay.nominal(), ssta.delay.nominal());
  EXPECT_GT(top10[0].delay.nominal(), 0.85 * ssta.delay.nominal());
}

TEST(Paths, PathsAreStructurallyValid) {
  const testing::ModuleUnderTest m(testing::small_module_spec(43));
  const TimingGraph& g = m.built.graph;
  for (const auto& p : report_critical_paths(g, 8)) {
    ASSERT_EQ(p.vertices.size(), p.edges.size() + 1);
    EXPECT_TRUE(g.vertex(p.vertices.front()).is_input);
    EXPECT_TRUE(g.vertex(p.vertices.back()).is_output);
    for (size_t i = 0; i < p.edges.size(); ++i) {
      EXPECT_EQ(g.edge(p.edges[i]).from, p.vertices[i]);
      EXPECT_EQ(g.edge(p.edges[i]).to, p.vertices[i + 1]);
    }
    EXPECT_GE(p.criticality, 0.0);
    EXPECT_LE(p.criticality, 1.0);
  }
}

TEST(Paths, ValidatesArguments) {
  const testing::ModuleUnderTest m(testing::small_module_spec(44));
  EXPECT_THROW((void)report_critical_paths(m.built.graph, 0), Error);
}

}  // namespace
}  // namespace hssta::core
