// Tests for the timing graph container, the netlist builder, canonical
// propagation (validated against Monte Carlo sampling of the same canonical
// forms) and corner STA.

#include <gtest/gtest.h>

#include <cmath>

#include "hssta/library/cell_library.hpp"
#include "hssta/netlist/generate.hpp"
#include "hssta/placement/placement.hpp"
#include "hssta/stats/empirical.hpp"
#include "hssta/stats/rng.hpp"
#include "hssta/timing/builder.hpp"
#include "hssta/timing/propagate.hpp"
#include "hssta/timing/sta.hpp"
#include "hssta/util/error.hpp"
#include "hssta/variation/space.hpp"

namespace hssta::timing {
namespace {

CanonicalForm form(double nominal, std::vector<double> corr, double random) {
  CanonicalForm f(corr.size());
  f.set_nominal(nominal);
  std::copy(corr.begin(), corr.end(), f.corr().begin());
  f.set_random(random);
  return f;
}

TEST(TimingGraph, ConstructionAndAdjacency) {
  TimingGraph g(2);
  const VertexId a = g.add_vertex("a", true);
  const VertexId m = g.add_vertex("m");
  const VertexId z = g.add_vertex("z", false, true);
  const EdgeId e1 = g.add_edge(a, m, form(1.0, {0.1, 0.0}, 0.05));
  const EdgeId e2 = g.add_edge(m, z, form(2.0, {0.0, 0.2}, 0.05));
  EXPECT_EQ(g.num_live_vertices(), 3u);
  EXPECT_EQ(g.num_live_edges(), 2u);
  EXPECT_EQ(g.vertex(m).fanin.size(), 1u);
  EXPECT_EQ(g.vertex(m).fanout.size(), 1u);
  EXPECT_EQ(g.edge(e1).to, m);
  EXPECT_EQ(g.edge(e2).from, m);
  EXPECT_NO_THROW(g.validate());
  EXPECT_EQ(g.inputs().size(), 1u);
  EXPECT_EQ(g.outputs().size(), 1u);
  EXPECT_EQ(g.find_vertex("m"), m);
  EXPECT_EQ(g.find_vertex("nope"), kNoVertex);
}

TEST(TimingGraph, RemovalRules) {
  TimingGraph g(1);
  const VertexId a = g.add_vertex("a", true);
  const VertexId m = g.add_vertex("m");
  const VertexId z = g.add_vertex("z", false, true);
  const EdgeId e1 = g.add_edge(a, m, form(1.0, {0.0}, 0.0));
  const EdgeId e2 = g.add_edge(m, z, form(1.0, {0.0}, 0.0));
  EXPECT_THROW(g.remove_vertex(m), Error);  // still has edges
  g.remove_edge(e1);
  EXPECT_THROW(g.remove_edge(e1), Error);  // already dead
  g.remove_edge(e2);
  EXPECT_EQ(g.num_live_edges(), 0u);
  EXPECT_THROW(g.remove_vertex(a), Error);  // port
  g.remove_vertex(m);
  EXPECT_FALSE(g.vertex_alive(m));
  EXPECT_EQ(g.num_live_vertices(), 2u);
  EXPECT_NO_THROW(g.validate());
}

TEST(TimingGraph, StructuralRules) {
  TimingGraph g(1);
  const VertexId a = g.add_vertex("a", true);
  const VertexId b = g.add_vertex("b", true);
  const VertexId m = g.add_vertex("m");
  EXPECT_THROW(g.add_edge(m, a, form(1, {0.0}, 0)), Error);  // into input
  EXPECT_THROW(g.add_edge(m, m, form(1, {0.0}, 0)), Error);  // self loop
  EXPECT_THROW(g.add_edge(a, m, CanonicalForm(3)), Error);   // wrong dim
  (void)b;
}

TEST(TimingGraph, TopoOrderAndReachability) {
  TimingGraph g(1);
  const VertexId a = g.add_vertex("a", true);
  const VertexId m1 = g.add_vertex("m1");
  const VertexId m2 = g.add_vertex("m2");
  const VertexId z = g.add_vertex("z", false, true);
  g.add_edge(a, m1, form(1, {0.0}, 0));
  g.add_edge(m1, z, form(1, {0.0}, 0));
  g.add_edge(a, m2, form(1, {0.0}, 0));  // m2 does not reach z
  const auto order = g.topo_order();
  EXPECT_EQ(order.size(), 4u);
  EXPECT_EQ(order.front(), a);
  const auto fwd = g.reachable_from(a);
  EXPECT_TRUE(fwd[z] && fwd[m2]);
  const auto bwd = g.reaches(z);
  EXPECT_TRUE(bwd[a] && bwd[m1]);
  EXPECT_FALSE(bwd[m2]);
}

TEST(Propagate, ChainSumsDelays) {
  TimingGraph g(2);
  const VertexId a = g.add_vertex("a", true);
  const VertexId m = g.add_vertex("m");
  const VertexId z = g.add_vertex("z", false, true);
  g.add_edge(a, m, form(1.0, {0.1, 0.0}, 0.3));
  g.add_edge(m, z, form(2.0, {0.2, 0.1}, 0.4));
  const PropagationResult r = propagate_arrivals(g);
  EXPECT_TRUE(r.is_valid(z));
  const CanonicalForm& az = r.at(z);
  EXPECT_DOUBLE_EQ(az.nominal(), 3.0);
  EXPECT_DOUBLE_EQ(az.corr()[0], 0.30000000000000004);
  EXPECT_DOUBLE_EQ(az.corr()[1], 0.1);
  EXPECT_DOUBLE_EQ(az.random(), 0.5);
  EXPECT_EQ(r.diagnostics.ops, 0u);  // no max needed on a chain
}

TEST(Propagate, DiamondTakesMax) {
  TimingGraph g(1);
  const VertexId a = g.add_vertex("a", true);
  const VertexId m1 = g.add_vertex("m1");
  const VertexId m2 = g.add_vertex("m2");
  const VertexId z = g.add_vertex("z", false, true);
  g.add_edge(a, m1, form(1.0, {0.0}, 0.1));
  g.add_edge(a, m2, form(1.2, {0.0}, 0.1));
  g.add_edge(m1, z, form(1.0, {0.0}, 0.1));
  g.add_edge(m2, z, form(1.0, {0.0}, 0.1));
  const PropagationResult r = propagate_arrivals(g);
  EXPECT_EQ(r.diagnostics.ops, 1u);
  // Mean of the max exceeds the larger branch mean.
  EXPECT_GT(r.at(z).nominal(), 2.2);
}

TEST(Propagate, UnreachedVertsAreInvalid) {
  TimingGraph g(1);
  const VertexId a = g.add_vertex("a", true);
  const VertexId b = g.add_vertex("b", true);
  const VertexId m = g.add_vertex("m");
  const VertexId z = g.add_vertex("z", false, true);
  g.add_edge(a, m, form(1, {0.0}, 0));
  g.add_edge(m, z, form(1, {0.0}, 0));
  // Propagate from b only: nothing is reachable.
  const std::vector<VertexId> sources{b};
  const PropagationResult r = propagate_arrivals(g, sources);
  EXPECT_FALSE(r.is_valid(z));
  EXPECT_FALSE(r.is_valid(m));
  EXPECT_TRUE(r.is_valid(b));
  EXPECT_THROW((void)r.at(z), Error);
  EXPECT_THROW((void)circuit_delay(g, r), Error);
}

TEST(Propagate, ForwardBackwardSymmetry) {
  // Max input->output delay computed forward from the input equals the one
  // computed backward from the output (same path set, same fold).
  TimingGraph g(2);
  const VertexId a = g.add_vertex("a", true);
  const VertexId m1 = g.add_vertex("m1");
  const VertexId m2 = g.add_vertex("m2");
  const VertexId z = g.add_vertex("z", false, true);
  g.add_edge(a, m1, form(1.0, {0.1, 0.0}, 0.2));
  g.add_edge(a, m2, form(1.1, {0.0, 0.1}, 0.2));
  g.add_edge(m1, z, form(1.3, {0.1, 0.1}, 0.1));
  g.add_edge(m2, z, form(1.2, {0.2, 0.0}, 0.1));
  const std::vector<VertexId> sources{a};
  const PropagationResult fwd = propagate_arrivals(g, sources);
  const std::vector<VertexId> sinks{z};
  PropagationResult bwd;
  propagate_required_into(g, sinks, bwd);
  EXPECT_NEAR(fwd.at(z).nominal(), bwd.at(a).nominal(), 1e-9);
  EXPECT_NEAR(fwd.at(z).sigma(), bwd.at(a).sigma(), 1e-9);
}

class PropagationVsMonteCarlo : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PropagationVsMonteCarlo, RandomDagCircuitDelayMoments) {
  // Build a random netlist, construct its canonical graph, and compare the
  // SSTA circuit delay against Monte Carlo sampling of the same canonical
  // edge delays. This isolates the propagation (max) approximation.
  const library::CellLibrary lib = library::default_90nm();
  netlist::RandomDagSpec spec;
  spec.num_inputs = 8;
  spec.num_outputs = 4;
  spec.num_gates = 120;
  spec.num_pins = 210;
  spec.depth = 12;
  spec.seed = GetParam();
  const netlist::Netlist nl = netlist::make_random_dag(spec, lib);
  const placement::Placement pl = placement::place_rows(nl);
  const variation::ModuleVariation mv = variation::make_module_variation(
      pl, nl.num_gates(), variation::default_90nm_parameters(),
      variation::SpatialCorrelationConfig{});
  const BuiltGraph built = build_timing_graph(nl, pl, mv);

  const PropagationResult r = propagate_arrivals(built.graph);
  const CanonicalForm delay = circuit_delay(built.graph, r);

  stats::Rng rng(GetParam() * 7 + 1);
  stats::Moments mc;
  std::vector<double> y(built.graph.dim());
  std::vector<double> edge_delays(built.graph.num_edge_slots(), 0.0);
  for (int s = 0; s < 4000; ++s) {
    for (double& v : y) v = rng.normal();
    for (EdgeId e = 0; e < built.graph.num_edge_slots(); ++e)
      edge_delays[e] = built.graph.edge(e).delay.evaluate(y, rng.normal());
    mc.add(longest_path(built.graph, edge_delays).max_over_outputs(
        built.graph));
  }
  EXPECT_NEAR(delay.nominal(), mc.mean(), 0.02 * mc.mean());
  EXPECT_NEAR(delay.sigma(), mc.stddev(), 0.15 * mc.stddev());
}

INSTANTIATE_TEST_SUITE_P(Seeds, PropagationVsMonteCarlo,
                         ::testing::Values(1, 2, 3));

TEST(Builder, VertexAndEdgeAccounting) {
  const library::CellLibrary lib = library::default_90nm();
  const netlist::Netlist nl = netlist::make_ripple_adder(8, lib);
  const placement::Placement pl = placement::place_rows(nl);
  const variation::ModuleVariation mv = variation::make_module_variation(
      pl, nl.num_gates(), variation::default_90nm_parameters(),
      variation::SpatialCorrelationConfig{});
  const BuiltGraph built = build_timing_graph(nl, pl, mv);
  // Paper's Table I accounting: V = #PI + #gates, E = total pins.
  EXPECT_EQ(built.graph.num_live_vertices(),
            nl.primary_inputs().size() + nl.num_gates());
  EXPECT_EQ(built.graph.num_live_edges(), nl.num_pins());
  EXPECT_EQ(built.input_vertices.size(), nl.primary_inputs().size());
  EXPECT_EQ(built.output_vertices.size(), nl.primary_outputs().size());
  EXPECT_EQ(built.sites.size(), built.graph.num_edge_slots());
  built.graph.validate();
  // Every edge has positive nominal delay and some variability.
  for (EdgeId e = 0; e < built.graph.num_edge_slots(); ++e) {
    EXPECT_GT(built.graph.edge(e).delay.nominal(), 0.0);
    EXPECT_GT(built.graph.edge(e).delay.sigma(), 0.0);
    EXPECT_GT(built.sites[e].nominal, 0.0);
  }
}

TEST(Builder, EdgeSigmaTracksSensitivityScale) {
  // An edge's relative sigma should be in the ballpark implied by the
  // dominant Leff sensitivity (~0.9 * 15.7% ~ 14%), diluted by load noise.
  const library::CellLibrary lib = library::default_90nm();
  const netlist::Netlist nl = netlist::make_ripple_adder(4, lib);
  const placement::Placement pl = placement::place_rows(nl);
  const variation::ModuleVariation mv = variation::make_module_variation(
      pl, nl.num_gates(), variation::default_90nm_parameters(),
      variation::SpatialCorrelationConfig{});
  const BuiltGraph built = build_timing_graph(nl, pl, mv);
  for (EdgeId e = 0; e < built.graph.num_edge_slots(); ++e) {
    const CanonicalForm& d = built.graph.edge(e).delay;
    const double rel = d.sigma() / d.nominal();
    EXPECT_GT(rel, 0.05);
    EXPECT_LT(rel, 0.40);
  }
}

TEST(Sta, CornerOrderingAndNominal) {
  const library::CellLibrary lib = library::default_90nm();
  const netlist::Netlist nl = netlist::make_ripple_adder(8, lib);
  const placement::Placement pl = placement::place_rows(nl);
  const variation::ModuleVariation mv = variation::make_module_variation(
      pl, nl.num_gates(), variation::default_90nm_parameters(),
      variation::SpatialCorrelationConfig{});
  const BuiltGraph built = build_timing_graph(nl, pl, mv);

  const double nominal = corner_delay(built.graph, 0.0);
  const double worst3 = corner_delay(built.graph, 3.0);
  EXPECT_GT(nominal, 0.0);
  EXPECT_GT(worst3, nominal);

  // The 3-sigma corner is pessimistic relative to the SSTA 99.87% quantile
  // (it ignores both averaging along paths and spatial correlation).
  const PropagationResult r = propagate_arrivals(built.graph);
  const CanonicalForm delay = circuit_delay(built.graph, r);
  EXPECT_GT(worst3, delay.quantile(0.9987));
}

TEST(Sta, LongestPathValidatesInput) {
  TimingGraph g(1);
  (void)g.add_vertex("a", true);
  std::vector<double> wrong(3, 0.0);
  EXPECT_THROW((void)longest_path(g, wrong), Error);
}

}  // namespace
}  // namespace hssta::timing
