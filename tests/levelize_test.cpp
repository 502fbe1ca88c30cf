// Property tests for TimingGraph::topo_order(): the one cached topological
// order every sweep walks (forwards, or backwards for the required-time and
// criticality passes). Pinned invariants: the order lists exactly the live
// vertices, every live edge goes forward in it, it equals Kahn's algorithm
// recomputed from scratch, cycles throw and cache nothing, and the cache is
// stable across calls, shared by copies (and by concurrent first callers),
// replaced by each of the four structural mutations and kept by edge-delay
// writes.

#include <gtest/gtest.h>

#include <algorithm>
#include <latch>
#include <memory>
#include <thread>
#include <vector>

#include "hssta/placement/placement.hpp"
#include "hssta/timing/graph.hpp"
#include "hssta/util/error.hpp"
#include "hssta/variation/grid.hpp"
#include "hssta/variation/parameters.hpp"
#include "hssta/variation/space.hpp"
#include "synthetic_graphs.hpp"

namespace hssta {
namespace {

using timing::CanonicalForm;
using timing::EdgeId;
using timing::TimingGraph;
using timing::VertexId;

CanonicalForm unit_delay(size_t dim = 0) {
  CanonicalForm f(dim);
  f.set_nominal(1.0);
  return f;
}

/// Kahn's algorithm from scratch: the fanin-free live vertices in slot
/// order, then each vertex as soon as its last fanin has been emitted.
std::vector<VertexId> kahn_reference(const TimingGraph& g) {
  std::vector<size_t> pending(g.num_vertex_slots(), 0);
  std::vector<VertexId> order;
  for (VertexId v = 0; v < g.num_vertex_slots(); ++v) {
    if (!g.vertex_alive(v)) continue;
    pending[v] = g.vertex(v).fanin.size();
    if (pending[v] == 0) order.push_back(v);
  }
  for (size_t head = 0; head < order.size(); ++head)
    for (EdgeId e : g.vertex(order[head]).fanout)
      if (--pending[g.edge(e).to] == 0) order.push_back(g.edge(e).to);
  return order;
}

size_t position(const TimingGraph& g, VertexId v) {
  const std::vector<VertexId>& order = g.topo_order();
  return static_cast<size_t>(std::find(order.begin(), order.end(), v) -
                             order.begin());
}

void expect_valid_order(const TimingGraph& g) {
  const std::vector<VertexId>& order = g.topo_order();

  // Exactly the live vertices, each once.
  std::vector<VertexId> live;
  for (VertexId v = 0; v < g.num_vertex_slots(); ++v)
    if (g.vertex_alive(v)) live.push_back(v);
  std::vector<VertexId> sorted = order;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, live);

  // Every live edge goes forward.
  std::vector<size_t> pos(g.num_vertex_slots(), order.size());
  for (size_t k = 0; k < order.size(); ++k) pos[order[k]] = k;
  for (EdgeId e = 0; e < g.num_edge_slots(); ++e) {
    if (!g.edge_alive(e)) continue;
    EXPECT_LT(pos[g.edge(e).from], pos[g.edge(e).to]) << "edge " << e;
  }

  EXPECT_EQ(order, kahn_reference(g));
}

std::shared_ptr<const variation::VariationSpace> one_grid_space() {
  const variation::GridPartition part(placement::Die{10.0, 10.0}, 1, 1);
  return std::make_shared<const variation::VariationSpace>(
      variation::default_90nm_parameters(), part.geometry(),
      variation::SpatialCorrelationConfig{});
}

TEST(Levelize, EmptyGraph) {
  const TimingGraph g(3);
  EXPECT_TRUE(g.topo_order().empty());
  expect_valid_order(g);
}

TEST(Levelize, SingleVertex) {
  TimingGraph g(0);
  const VertexId v = g.add_vertex("only", true, true);
  EXPECT_EQ(g.topo_order(), std::vector<VertexId>{v});
  expect_valid_order(g);
}

TEST(Levelize, DiamondGraph) {
  TimingGraph g(0);
  const VertexId a = g.add_vertex("a", true);
  const VertexId b = g.add_vertex("b");
  const VertexId c = g.add_vertex("c");
  const VertexId d = g.add_vertex("d", false, true);
  g.add_edge(a, b, unit_delay());
  g.add_edge(a, c, unit_delay());
  g.add_edge(b, d, unit_delay());
  g.add_edge(c, d, unit_delay());
  // The fork's branches follow in a's fanout order, the join comes last.
  EXPECT_EQ(position(g, a), 0u);
  EXPECT_EQ(position(g, b), 1u);
  EXPECT_EQ(position(g, c), 2u);
  EXPECT_EQ(position(g, d), 3u);
  expect_valid_order(g);
}

TEST(Levelize, UnbalancedReconvergence) {
  // a -> b -> c -> d and a -> d directly: the direct edge does not pull d
  // ahead of the long branch, d waits for its last fanin c.
  TimingGraph g(0);
  const VertexId a = g.add_vertex("a", true);
  const VertexId b = g.add_vertex("b");
  const VertexId c = g.add_vertex("c");
  const VertexId d = g.add_vertex("d", false, true);
  g.add_edge(a, b, unit_delay());
  g.add_edge(b, c, unit_delay());
  g.add_edge(c, d, unit_delay());
  g.add_edge(a, d, unit_delay());
  EXPECT_EQ(position(g, a), 0u);
  EXPECT_EQ(position(g, b), 1u);
  EXPECT_EQ(position(g, c), 2u);
  EXPECT_EQ(position(g, d), 3u);
  expect_valid_order(g);
}

TEST(Levelize, CycleRejected) {
  TimingGraph g(0);
  const VertexId a = g.add_vertex("a");
  const VertexId b = g.add_vertex("b");
  g.add_edge(a, b, unit_delay());
  g.add_edge(b, a, unit_delay());
  EXPECT_THROW((void)g.topo_order(), Error);
  // Nothing was cached: every later call, a copy's included, sorts again
  // and throws again.
  EXPECT_THROW((void)g.topo_order(), Error);
  const TimingGraph copy = g;
  EXPECT_THROW((void)copy.topo_order(), Error);
  EXPECT_THROW(g.validate(), Error);
}

TEST(Levelize, RandomShapesHoldInvariants) {
  stats::Rng rng(20260728);
  for (size_t t = 0; t < 40; ++t) {
    const testing::SyntheticGraphSpec spec = testing::random_spec(rng);
    const TimingGraph g = testing::make_synthetic_graph(spec, rng);
    expect_valid_order(g);
  }
}

TEST(Levelize, SurvivesEdgeRemovalAndVertexRemoval) {
  stats::Rng rng(7);
  testing::SyntheticGraphSpec spec;
  spec.width = 6;
  spec.depth = 3;
  TimingGraph g = testing::make_synthetic_graph(spec, rng);
  expect_valid_order(g);
  // Remove a handful of live edges (plus any vertex that goes dangling)
  // and re-check; mutation must invalidate the cache.
  size_t removed = 0;
  for (EdgeId e = 0; e < g.num_edge_slots() && removed < 5; ++e) {
    if (!g.edge_alive(e)) continue;
    g.remove_edge(e);
    ++removed;
  }
  for (VertexId v = 0; v < g.num_vertex_slots(); ++v) {
    if (!g.vertex_alive(v)) continue;
    const timing::TimingVertex& tv = g.vertex(v);
    if (!tv.is_input && !tv.is_output && tv.fanin.empty() &&
        tv.fanout.empty())
      g.remove_vertex(v);
  }
  expect_valid_order(g);
}

TEST(Levelize, CacheInvalidatesButSnapshotsSurvive) {
  TimingGraph g(one_grid_space());
  const VertexId a = g.add_vertex("a", true);
  const VertexId b = g.add_vertex("b", false, true);
  const EdgeId ab = g.add_edge(a, b, unit_delay(g.dim()));
  const std::vector<VertexId>* cached = &g.topo_order();

  // Delay writes leave the structure, and so the cached order, alone.
  g.edge(ab).delay.set_nominal(2.0);
  EXPECT_EQ(&g.topo_order(), cached);

  // Each structural mutation replaces the order. A copy taken just before
  // keeps the old vector alive (so the new one cannot reuse its address)
  // and still describes the old graph.
  auto expect_replaced = [&g](auto mutate) {
    const std::vector<VertexId>& old = g.topo_order();
    const TimingGraph before = g;
    ASSERT_EQ(&before.topo_order(), &old);
    const std::vector<VertexId> old_order = old;
    mutate();
    EXPECT_NE(&g.topo_order(), &old);
    EXPECT_EQ(before.topo_order(), old_order);
    expect_valid_order(g);
  };
  VertexId c = timing::kNoVertex;
  EdgeId bc = timing::kNoEdge;
  expect_replaced([&] { c = g.add_vertex("c"); });
  expect_replaced([&] { bc = g.add_edge(b, c, unit_delay(g.dim())); });
  EXPECT_EQ(g.topo_order(), (std::vector<VertexId>{a, b, c}));
  expect_replaced([&] { g.remove_edge(bc); });
  expect_replaced([&] { g.remove_vertex(c); });
  EXPECT_EQ(g.topo_order(), (std::vector<VertexId>{a, b}));
}

TEST(Levelize, CopiesShareTheSnapshot) {
  TimingGraph g(0);
  const VertexId a = g.add_vertex("a", true);
  const VertexId b = g.add_vertex("b", false, true);
  g.add_edge(a, b, unit_delay());
  const std::vector<VertexId>& order = g.topo_order();
  EXPECT_EQ(&g.topo_order(), &order);  // cached: stable across calls
  TimingGraph copy = g;
  EXPECT_EQ(&copy.topo_order(), &order);
  TimingGraph assigned(0);
  assigned = g;
  EXPECT_EQ(&assigned.topo_order(), &order);
  // Mutating the original does not disturb the copies' order.
  g.add_vertex("x", true);
  EXPECT_EQ(&copy.topo_order(), &order);
  EXPECT_EQ(copy.topo_order(), (std::vector<VertexId>{a, b}));
  EXPECT_NE(&g.topo_order(), &order);
  EXPECT_EQ(g.topo_order().size(), 3u);
  // A move hands the cache over.
  const TimingGraph moved = std::move(copy);
  EXPECT_EQ(&moved.topo_order(), &order);
}

TEST(Levelize, ConcurrentFirstCallsShareOneOrder) {
  stats::Rng rng(11);
  testing::SyntheticGraphSpec spec;
  spec.width = 40;
  spec.depth = 8;
  const TimingGraph g = testing::make_synthetic_graph(spec, rng);
  constexpr size_t kThreads = 4;
  std::vector<const std::vector<VertexId>*> seen(kThreads, nullptr);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      seen[t] = &g.topo_order();
    });
  for (std::thread& th : threads) th.join();
  for (const std::vector<VertexId>* p : seen) EXPECT_EQ(p, seen.front());
  EXPECT_EQ(&g.topo_order(), seen.front());
  expect_valid_order(g);
}

}  // namespace
}  // namespace hssta
