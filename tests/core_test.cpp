// Tests for the core SSTA engine: all-pairs IO delays, edge criticality
// (chain / parallel-cut / dominance properties, batch vs reference engine,
// chunking invariance), and the SSTA facade with statistical slack.

#include <gtest/gtest.h>

#include <cmath>

#include "hssta/core/criticality.hpp"
#include "hssta/core/io_delays.hpp"
#include "hssta/core/ssta.hpp"
#include "hssta/library/cell_library.hpp"
#include "hssta/netlist/generate.hpp"
#include "hssta/placement/placement.hpp"
#include "hssta/timing/builder.hpp"
#include "hssta/util/error.hpp"
#include "hssta/variation/space.hpp"
#include "oracles.hpp"

namespace hssta::core {
namespace {

using timing::CanonicalForm;
using timing::EdgeId;
using timing::TimingGraph;
using timing::VertexId;

CanonicalForm form(double nominal, std::vector<double> corr, double random) {
  CanonicalForm f(corr.size());
  f.set_nominal(nominal);
  std::copy(corr.begin(), corr.end(), f.corr().begin());
  f.set_random(random);
  return f;
}

/// in0 -> m -> out0, in1 -> m (two inputs, shared internal vertex).
TimingGraph two_input_graph() {
  TimingGraph g(2);
  const VertexId i0 = g.add_vertex("i0", true);
  const VertexId i1 = g.add_vertex("i1", true);
  const VertexId m = g.add_vertex("m");
  const VertexId z = g.add_vertex("z", false, true);
  g.add_edge(i0, m, form(1.0, {0.1, 0.0}, 0.05));
  g.add_edge(i1, m, form(2.0, {0.0, 0.1}, 0.05));
  g.add_edge(m, z, form(1.5, {0.1, 0.1}, 0.05));
  return g;
}

TEST(DelayMatrix, ChainDelaysSumAndValidity) {
  TimingGraph g = two_input_graph();
  const DelayMatrix m = all_pairs_io_delays(g);
  EXPECT_EQ(m.num_inputs(), 2u);
  EXPECT_EQ(m.num_outputs(), 1u);
  EXPECT_EQ(m.num_valid(), 2u);
  EXPECT_DOUBLE_EQ(m.at(0, 0).nominal(), 2.5);
  EXPECT_DOUBLE_EQ(m.at(1, 0).nominal(), 3.5);
}

TEST(DelayMatrix, DisconnectedPairIsInvalid) {
  TimingGraph g(1);
  const VertexId a = g.add_vertex("a", true);
  const VertexId b = g.add_vertex("b", true);
  const VertexId y = g.add_vertex("y", false, true);
  const VertexId z = g.add_vertex("z", false, true);
  g.add_edge(a, y, form(1.0, {0.0}, 0.0));
  g.add_edge(b, z, form(1.0, {0.0}, 0.0));
  const DelayMatrix m = all_pairs_io_delays(g);
  EXPECT_TRUE(m.is_valid(0, 0));
  EXPECT_FALSE(m.is_valid(0, 1));
  EXPECT_FALSE(m.is_valid(1, 0));
  EXPECT_TRUE(m.is_valid(1, 1));
  EXPECT_EQ(m.num_valid(), 2u);
  EXPECT_THROW((void)m.at(0, 1), Error);
}

TEST(DelayMatrix, MaxMeanErrorComparesValidPairs) {
  DelayMatrix a(1, 2, 1), b(1, 2, 1);
  a.set(0, 0, form(1.0, {0.0}, 0.0));
  b.set(0, 0, form(1.1, {0.0}, 0.0));
  a.set(0, 1, form(2.0, {0.0}, 0.0));
  b.set(0, 1, form(2.0, {0.0}, 0.0));
  EXPECT_NEAR(a.max_mean_error(b), 0.1 / 1.1, 1e-12);
  DelayMatrix c(2, 2, 1);
  EXPECT_THROW((void)a.max_mean_error(c), Error);
}

TEST(Criticality, ChainEdgesAreFullyCritical) {
  TimingGraph g(1);
  VertexId prev = g.add_vertex("in", true);
  for (int i = 0; i < 4; ++i) {
    const VertexId next = (i == 3) ? g.add_vertex("out", false, true)
                                   : g.add_vertex("m" + std::to_string(i));
    g.add_edge(prev, next, form(1.0, {0.1}, 0.05));
    prev = next;
  }
  const CriticalityResult r = compute_criticality(g);
  for (EdgeId e = 0; e < g.num_edge_slots(); ++e)
    EXPECT_NEAR(r.max_criticality[e], 1.0, 1e-12) << "edge " << e;
}

TEST(Criticality, BalancedParallelBranchesSplitAndSumToOne) {
  // Two stochastically identical parallel branches: each carries
  // criticality ~0.5, and the cut criticalities sum to ~1.
  TimingGraph g(1);
  const VertexId a = g.add_vertex("a", true);
  const VertexId m1 = g.add_vertex("m1");
  const VertexId m2 = g.add_vertex("m2");
  const VertexId z = g.add_vertex("z", false, true);
  const EdgeId b1 = g.add_edge(a, m1, form(1.0, {0.0}, 0.2));
  const EdgeId b2 = g.add_edge(a, m2, form(1.0, {0.0}, 0.2));
  g.add_edge(m1, z, form(1.0, {0.0}, 0.01));
  g.add_edge(m2, z, form(1.0, {0.0}, 0.01));
  const CriticalityResult r = compute_criticality(g);
  EXPECT_NEAR(r.max_criticality[b1], 0.5, 0.02);
  EXPECT_NEAR(r.max_criticality[b2], 0.5, 0.02);
  EXPECT_NEAR(r.max_criticality[b1] + r.max_criticality[b2], 1.0, 0.03);
}

TEST(Criticality, DominatedBranchIsNonCritical) {
  TimingGraph g(1);
  const VertexId a = g.add_vertex("a", true);
  const VertexId m1 = g.add_vertex("m1");
  const VertexId m2 = g.add_vertex("m2");
  const VertexId z = g.add_vertex("z", false, true);
  const EdgeId fast = g.add_edge(a, m1, form(0.2, {0.0}, 0.02));
  const EdgeId slow = g.add_edge(a, m2, form(2.0, {0.0}, 0.02));
  g.add_edge(m1, z, form(0.2, {0.0}, 0.02));
  g.add_edge(m2, z, form(0.2, {0.0}, 0.02));
  const CriticalityResult r = compute_criticality(g);
  EXPECT_LT(r.max_criticality[fast], 1e-6);
  EXPECT_GT(r.max_criticality[slow], 1.0 - 1e-6);
}

TEST(Criticality, MaxOverPairsNotPerPair) {
  // An edge critical for (i1, z) but dominated for (i0, z): cm picks the max.
  TimingGraph g = two_input_graph();
  const CriticalityResult r = compute_criticality(g);
  // Both input edges are the sole path from their input: criticality 1.
  EXPECT_NEAR(r.max_criticality[0], 1.0, 1e-9);
  EXPECT_NEAR(r.max_criticality[1], 1.0, 1e-9);
  EXPECT_NEAR(r.max_criticality[2], 1.0, 1e-9);
  // Per-pair reference: edge 0 for pair (0, 0) is the only path.
  EXPECT_NEAR(edge_pair_criticality(g, 0, 0, 0), 1.0, 1e-9);
  // Edge 1 cannot lie on a path from input 0.
  EXPECT_DOUBLE_EQ(edge_pair_criticality(g, 1, 0, 0), 0.0);
}

class CriticalityOnCircuit : public ::testing::Test {
 protected:
  CriticalityOnCircuit()
      : nl_(netlist::make_random_dag(spec(), lib())),
        pl_(placement::place_rows(nl_)),
        mv_(variation::make_module_variation(
            pl_, nl_.num_gates(), variation::default_90nm_parameters(),
            variation::SpatialCorrelationConfig{})),
        built_(timing::build_timing_graph(nl_, pl_, mv_)) {}

  static netlist::RandomDagSpec spec() {
    netlist::RandomDagSpec s;
    s.num_inputs = 6;
    s.num_outputs = 4;
    s.num_gates = 60;
    s.num_pins = 105;
    s.depth = 8;
    s.seed = 5;
    return s;
  }

  static const library::CellLibrary& lib() {
    static const library::CellLibrary l = library::default_90nm();
    return l;
  }

  netlist::Netlist nl_;
  placement::Placement pl_;
  variation::ModuleVariation mv_;
  timing::BuiltGraph built_;
};

TEST_F(CriticalityOnCircuit, BoundedAndBatchMatchesReference) {
  const CriticalityResult r = compute_criticality(built_.graph);
  for (EdgeId e = 0; e < built_.graph.num_edge_slots(); ++e) {
    EXPECT_GE(r.max_criticality[e], 0.0);
    EXPECT_LE(r.max_criticality[e], 1.0 + 1e-12);
  }
  // Cross-check a handful of edges against the single-pair reference.
  const size_t ni = built_.graph.inputs().size();
  const size_t no = built_.graph.outputs().size();
  for (EdgeId e = 0; e < built_.graph.num_edge_slots(); e += 17) {
    double best = 0.0;
    for (size_t i = 0; i < ni; ++i)
      for (size_t j = 0; j < no; ++j)
        best = std::max(best, edge_pair_criticality(built_.graph, e, i, j));
    EXPECT_NEAR(r.max_criticality[e], best, 1e-9) << "edge " << e;
  }
}

TEST_F(CriticalityOnCircuit, PairCriticalitiesPartitionEveryCut) {
  // For a fixed pair (i, j), the fanin edges of any vertex with positive
  // vertex criticality receive that mass exactly (tp renormalization), so
  // the fanin edges of output j itself sum to 1 whenever i reaches j.
  const TimingGraph& g = built_.graph;
  const DelayMatrix m = all_pairs_io_delays(g);
  for (size_t i = 0; i < g.inputs().size(); ++i) {
    for (size_t j = 0; j < g.outputs().size(); ++j) {
      if (!m.is_valid(i, j)) continue;
      const std::vector<double> c = pair_criticalities(g, i, j);
      const VertexId out = g.outputs()[j];
      double sum = 0.0;
      for (EdgeId e : g.vertex(out).fanin) sum += c[e];
      EXPECT_NEAR(sum, 1.0, 1e-9) << "pair " << i << "," << j;
      for (EdgeId e = 0; e < g.num_edge_slots(); ++e) {
        EXPECT_GE(c[e], 0.0);
        EXPECT_LE(c[e], 1.0 + 1e-6);
      }
    }
  }
}

TEST_F(CriticalityOnCircuit, DisconnectedPairHasZeroCriticality) {
  const TimingGraph& g = built_.graph;
  const DelayMatrix m = all_pairs_io_delays(g);
  for (size_t i = 0; i < g.inputs().size(); ++i)
    for (size_t j = 0; j < g.outputs().size(); ++j) {
      if (m.is_valid(i, j)) continue;
      const std::vector<double> c = pair_criticalities(g, i, j);
      for (double v : c) EXPECT_DOUBLE_EQ(v, 0.0);
    }
}

TEST_F(CriticalityOnCircuit, IoDelaysByproductMatchesDirectComputation) {
  const CriticalityResult r = compute_criticality(built_.graph);
  const DelayMatrix direct = all_pairs_io_delays(built_.graph);
  ASSERT_EQ(r.io_delays.num_inputs(), direct.num_inputs());
  for (size_t i = 0; i < direct.num_inputs(); ++i)
    for (size_t j = 0; j < direct.num_outputs(); ++j) {
      ASSERT_EQ(r.io_delays.is_valid(i, j), direct.is_valid(i, j));
      if (!direct.is_valid(i, j)) continue;
      EXPECT_DOUBLE_EQ(r.io_delays.at(i, j).nominal(),
                       direct.at(i, j).nominal());
    }
}

TEST(Ssta, FacadeMatchesManualPropagation) {
  TimingGraph g = two_input_graph();
  const SstaResult r = run_ssta(g);
  const timing::PropagationResult manual = timing::propagate_arrivals(g);
  const CanonicalForm direct = timing::circuit_delay(g, manual);
  EXPECT_DOUBLE_EQ(r.delay.nominal(), direct.nominal());
  EXPECT_DOUBLE_EQ(r.delay.sigma(), direct.sigma());
  // Yield is monotone in the period.
  EXPECT_LT(r.timing_yield(r.delay.quantile(0.1)),
            r.timing_yield(r.delay.quantile(0.9)));
}

TEST(Ssta, SlackSignsFollowRequiredTime) {
  TimingGraph g = two_input_graph();
  const SstaResult r = run_ssta(g);
  const double mean_delay = r.delay.nominal();

  const SlackResult loose = compute_slack(g, mean_delay + 10.0);
  const SlackResult tight = compute_slack(g, mean_delay - 10.0);
  for (VertexId v = 0; v < g.num_vertex_slots(); ++v) {
    if (!loose.valid[v]) continue;
    EXPECT_GT(loose.slack[v].nominal(), 0.0);
    EXPECT_LT(tight.slack[v].nominal(), 0.0);
    // Same uncertainty magnitude either way.
    EXPECT_NEAR(loose.slack[v].sigma(), tight.slack[v].sigma(), 1e-12);
  }
}

TEST(Ssta, SlackAtOutputEqualsRequiredMinusArrival) {
  TimingGraph g = two_input_graph();
  const VertexId z = g.outputs()[0];
  const SstaResult r = run_ssta(g);
  const SlackResult s = compute_slack(g, 5.0);
  ASSERT_TRUE(s.valid[z]);
  EXPECT_NEAR(s.slack[z].nominal(), 5.0 - r.arrivals.at(z).nominal(), 1e-12);
  EXPECT_NEAR(s.slack[z].sigma(), r.arrivals.at(z).sigma(), 1e-12);
}

}  // namespace
}  // namespace hssta::core
