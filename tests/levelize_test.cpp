// Property tests for TimingGraph::levels(): the cached levelization the
// level-synchronous sweeps are built on. Pinned invariants: every live edge
// goes to a strictly higher level, the buckets partition topo_order()
// exactly, levels equal longest-path depth, cycles are rejected, and the
// cache invalidates on mutation while handed-out snapshots stay intact.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "hssta/timing/graph.hpp"
#include "hssta/util/error.hpp"
#include "synthetic_graphs.hpp"

namespace hssta {
namespace {

using timing::CanonicalForm;
using timing::EdgeId;
using timing::kNoLevel;
using timing::LevelStructure;
using timing::TimingGraph;
using timing::VertexId;

CanonicalForm unit_delay() {
  CanonicalForm f(0);
  f.set_nominal(1.0);
  return f;
}

void expect_valid_levelization(const TimingGraph& g) {
  const std::shared_ptr<const LevelStructure> ls = g.levels();
  const std::vector<VertexId> topo = g.topo_order();

  // The concatenated buckets are exactly topo_order() (and therefore the
  // union of buckets equals it as a set).
  EXPECT_EQ(ls->order, topo);
  ASSERT_EQ(ls->offsets.empty() ? 0 : ls->offsets.front(), 0u);
  if (!ls->order.empty()) {
    ASSERT_EQ(ls->offsets.back(), ls->order.size());
    EXPECT_TRUE(std::is_sorted(ls->offsets.begin(), ls->offsets.end()));
  }
  std::set<VertexId> in_buckets;
  for (size_t l = 0; l < ls->num_levels(); ++l) {
    EXPECT_GT(ls->bucket(l).size(), 0u) << "empty bucket " << l;
    for (VertexId v : ls->bucket(l)) {
      EXPECT_EQ(ls->level_of[v], l);
      in_buckets.insert(v);
    }
  }
  EXPECT_EQ(in_buckets.size(), topo.size());
  EXPECT_EQ(in_buckets, std::set<VertexId>(topo.begin(), topo.end()));

  // Every live edge increases the level strictly.
  for (EdgeId e = 0; e < g.num_edge_slots(); ++e) {
    if (!g.edge_alive(e)) continue;
    EXPECT_LT(ls->level_of[g.edge(e).from], ls->level_of[g.edge(e).to]);
  }

  // level_of is the longest-path depth: 0 without fanin, else 1 + max over
  // fanin sources (reference DP over the topo order).
  std::vector<uint32_t> ref(g.num_vertex_slots(), kNoLevel);
  for (VertexId v : topo) {
    uint32_t level = 0;
    for (EdgeId e : g.vertex(v).fanin)
      level = std::max(level, ref[g.edge(e).from] + 1);
    ref[v] = level;
  }
  EXPECT_EQ(ls->level_of, ref);

  // Dead slots carry no level.
  for (VertexId v = 0; v < g.num_vertex_slots(); ++v)
    if (!g.vertex_alive(v)) EXPECT_EQ(ls->level_of[v], kNoLevel);
}

TEST(Levelize, EmptyGraph) {
  const TimingGraph g(3);
  const auto ls = g.levels();
  EXPECT_EQ(ls->num_levels(), 0u);
  EXPECT_TRUE(ls->order.empty());
}

TEST(Levelize, SingleVertex) {
  TimingGraph g(0);
  const VertexId v = g.add_vertex("only", true, true);
  const auto ls = g.levels();
  ASSERT_EQ(ls->num_levels(), 1u);
  ASSERT_EQ(ls->bucket(0).size(), 1u);
  EXPECT_EQ(ls->bucket(0)[0], v);
  EXPECT_EQ(ls->level_of[v], 0u);
  expect_valid_levelization(g);
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
  const auto ls = g.levels();
  ASSERT_EQ(ls->num_levels(), 3u);
  EXPECT_EQ(ls->level_of[a], 0u);
  EXPECT_EQ(ls->level_of[b], 1u);
  EXPECT_EQ(ls->level_of[c], 1u);
  EXPECT_EQ(ls->level_of[d], 2u);
  EXPECT_EQ(ls->bucket(1).size(), 2u);
  expect_valid_levelization(g);
}

TEST(Levelize, UnbalancedReconvergence) {
  // a -> b -> c -> d and a -> d directly: d sits at level 3, not 1.
  TimingGraph g(0);
  const VertexId a = g.add_vertex("a", true);
  const VertexId b = g.add_vertex("b");
  const VertexId c = g.add_vertex("c");
  const VertexId d = g.add_vertex("d", false, true);
  g.add_edge(a, b, unit_delay());
  g.add_edge(b, c, unit_delay());
  g.add_edge(c, d, unit_delay());
  g.add_edge(a, d, unit_delay());
  EXPECT_EQ(g.levels()->level_of[d], 3u);
  expect_valid_levelization(g);
}

TEST(Levelize, CycleRejected) {
  TimingGraph g(0);
  const VertexId a = g.add_vertex("a");
  const VertexId b = g.add_vertex("b");
  g.add_edge(a, b, unit_delay());
  g.add_edge(b, a, unit_delay());
  EXPECT_THROW((void)g.levels(), Error);
}

TEST(Levelize, RandomShapesHoldInvariants) {
  stats::Rng rng(20260728);
  for (size_t t = 0; t < 40; ++t) {
    const testing::SyntheticGraphSpec spec = testing::random_spec(rng);
    const TimingGraph g = testing::make_synthetic_graph(spec, rng);
    expect_valid_levelization(g);
  }
}

TEST(Levelize, SurvivesEdgeRemovalAndVertexRemoval) {
  stats::Rng rng(7);
  testing::SyntheticGraphSpec spec;
  spec.width = 6;
  spec.depth = 3;
  TimingGraph g = testing::make_synthetic_graph(spec, rng);
  expect_valid_levelization(g);
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
  expect_valid_levelization(g);
}

TEST(Levelize, CacheInvalidatesButSnapshotsSurvive) {
  TimingGraph g(0);
  const VertexId a = g.add_vertex("a", true);
  const VertexId b = g.add_vertex("b", false, true);
  g.add_edge(a, b, unit_delay());
  const auto before = g.levels();
  EXPECT_EQ(g.levels().get(), before.get());  // cached: same snapshot

  const VertexId c = g.add_vertex("c", false, true);
  g.add_edge(b, c, unit_delay());
  const auto after = g.levels();
  EXPECT_NE(after.get(), before.get());  // mutation invalidated the cache
  // The old snapshot is untouched and still describes the old graph.
  EXPECT_EQ(before->order.size(), 2u);
  EXPECT_EQ(after->order.size(), 3u);
  EXPECT_EQ(after->level_of[c], 2u);
}

TEST(Levelize, CopiesShareTheSnapshot) {
  TimingGraph g(0);
  const VertexId a = g.add_vertex("a", true);
  const VertexId b = g.add_vertex("b", false, true);
  g.add_edge(a, b, unit_delay());
  const auto ls = g.levels();
  const TimingGraph copy = g;
  EXPECT_EQ(copy.levels().get(), ls.get());
  // Mutating the original does not disturb the copy's snapshot.
  g.add_vertex("x", true);
  EXPECT_EQ(copy.levels().get(), ls.get());
  EXPECT_NE(g.levels().get(), ls.get());
}

}  // namespace
}  // namespace hssta
