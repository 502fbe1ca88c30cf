#include "hssta/timing/graph.hpp"

#include <algorithm>

#include "hssta/util/error.hpp"

namespace hssta::timing {

TimingGraph::TimingGraph(
    std::shared_ptr<const variation::VariationSpace> space)
    : space_(std::move(space)) {
  HSSTA_REQUIRE(space_ != nullptr, "timing graph needs a variation space");
  dim_ = space_->dim();
}

TimingGraph::TimingGraph(size_t dim) : dim_(dim) {}

TimingGraph::TimingGraph(const TimingGraph& other)
    : space_(other.space_),
      dim_(other.dim_),
      vertices_(other.vertices_),
      edges_(other.edges_),
      vertex_alive_(other.vertex_alive_),
      edge_alive_(other.edge_alive_),
      inputs_(other.inputs_),
      outputs_(other.outputs_),
      live_vertices_(other.live_vertices_),
      live_edges_(other.live_edges_),
      levels_(other.cached_levels()) {}

TimingGraph& TimingGraph::operator=(const TimingGraph& other) {
  if (this == &other) return *this;
  space_ = other.space_;
  dim_ = other.dim_;
  vertices_ = other.vertices_;
  edges_ = other.edges_;
  vertex_alive_ = other.vertex_alive_;
  edge_alive_ = other.edge_alive_;
  inputs_ = other.inputs_;
  outputs_ = other.outputs_;
  live_vertices_ = other.live_vertices_;
  live_edges_ = other.live_edges_;
  levels_ = other.cached_levels();
  return *this;
}

TimingGraph::TimingGraph(TimingGraph&& other) noexcept
    : space_(std::move(other.space_)),
      dim_(other.dim_),
      vertices_(std::move(other.vertices_)),
      edges_(std::move(other.edges_)),
      vertex_alive_(std::move(other.vertex_alive_)),
      edge_alive_(std::move(other.edge_alive_)),
      inputs_(std::move(other.inputs_)),
      outputs_(std::move(other.outputs_)),
      live_vertices_(other.live_vertices_),
      live_edges_(other.live_edges_),
      levels_(std::move(other.levels_)) {}

TimingGraph& TimingGraph::operator=(TimingGraph&& other) noexcept {
  if (this == &other) return *this;
  space_ = std::move(other.space_);
  dim_ = other.dim_;
  vertices_ = std::move(other.vertices_);
  edges_ = std::move(other.edges_);
  vertex_alive_ = std::move(other.vertex_alive_);
  edge_alive_ = std::move(other.edge_alive_);
  inputs_ = std::move(other.inputs_);
  outputs_ = std::move(other.outputs_);
  live_vertices_ = other.live_vertices_;
  live_edges_ = other.live_edges_;
  levels_ = std::move(other.levels_);
  return *this;
}

void TimingGraph::reset_space(
    std::shared_ptr<const variation::VariationSpace> space) {
  HSSTA_REQUIRE(space != nullptr, "reset_space: null variation space");
  HSSTA_REQUIRE(space->dim() == dim_,
                "reset_space: the new space changes the coefficient "
                "dimension");
  space_ = std::move(space);
}

void TimingGraph::invalidate_levels() {
  const std::lock_guard<std::mutex> lock(levels_mu_);
  levels_.reset();
}

VertexId TimingGraph::add_vertex(std::string name, bool is_input,
                                 bool is_output) {
  const VertexId v = static_cast<VertexId>(vertices_.size());
  vertices_.push_back(TimingVertex{std::move(name), is_input, is_output,
                                   {}, {}});
  vertex_alive_.push_back(1);
  ++live_vertices_;
  if (is_input) inputs_.push_back(v);
  if (is_output) outputs_.push_back(v);
  invalidate_levels();
  return v;
}

EdgeId TimingGraph::add_edge(VertexId from, VertexId to, CanonicalForm delay) {
  HSSTA_REQUIRE(vertex_alive(from) && vertex_alive(to),
                "edge endpoints must be live vertices");
  HSSTA_REQUIRE(from != to, "self-loop edge");
  HSSTA_REQUIRE(delay.dim() == dim_, "edge delay dimension mismatch");
  HSSTA_REQUIRE(!vertices_[to].is_input, "edges may not enter an input port");
  const EdgeId e = static_cast<EdgeId>(edges_.size());
  edges_.push_back(TimingEdge{from, to, std::move(delay)});
  edge_alive_.push_back(1);
  ++live_edges_;
  vertices_[from].fanout.push_back(e);
  vertices_[to].fanin.push_back(e);
  invalidate_levels();
  return e;
}

void TimingGraph::remove_edge(EdgeId e) {
  HSSTA_REQUIRE(edge_alive(e), "removing a dead edge");
  const TimingEdge& te = edges_[e];
  auto detach = [e](std::vector<EdgeId>& list) {
    const auto it = std::find(list.begin(), list.end(), e);
    HSSTA_ASSERT(it != list.end(), "edge missing from adjacency");
    list.erase(it);
  };
  detach(vertices_[te.from].fanout);
  detach(vertices_[te.to].fanin);
  edge_alive_[e] = 0;
  --live_edges_;
  invalidate_levels();
}

void TimingGraph::remove_vertex(VertexId v) {
  HSSTA_REQUIRE(vertex_alive(v), "removing a dead vertex");
  const TimingVertex& tv = vertices_[v];
  HSSTA_REQUIRE(!tv.is_input && !tv.is_output, "ports cannot be removed");
  HSSTA_REQUIRE(tv.fanin.empty() && tv.fanout.empty(),
                "vertex still has live edges");
  vertex_alive_[v] = 0;
  --live_vertices_;
  invalidate_levels();
}

bool TimingGraph::vertex_alive(VertexId v) const {
  return v < vertices_.size() && vertex_alive_[v] != 0;
}

bool TimingGraph::edge_alive(EdgeId e) const {
  return e < edges_.size() && edge_alive_[e] != 0;
}

TimingVertex& TimingGraph::vertex(VertexId v) {
  HSSTA_REQUIRE(vertex_alive(v), "access to dead vertex");
  return vertices_[v];
}

const TimingVertex& TimingGraph::vertex(VertexId v) const {
  HSSTA_REQUIRE(vertex_alive(v), "access to dead vertex");
  return vertices_[v];
}

TimingEdge& TimingGraph::edge(EdgeId e) {
  HSSTA_REQUIRE(edge_alive(e), "access to dead edge");
  return edges_[e];
}

const TimingEdge& TimingGraph::edge(EdgeId e) const {
  HSSTA_REQUIRE(edge_alive(e), "access to dead edge");
  return edges_[e];
}

VertexId TimingGraph::find_vertex(const std::string& name) const {
  for (VertexId v = 0; v < vertices_.size(); ++v)
    if (vertex_alive_[v] && vertices_[v].name == name) return v;
  return kNoVertex;
}

std::vector<VertexId> TimingGraph::topo_order() const {
  std::vector<size_t> pending(vertices_.size(), 0);
  std::vector<VertexId> ready;
  ready.reserve(live_vertices_);
  for (VertexId v = 0; v < vertices_.size(); ++v) {
    if (!vertex_alive_[v]) continue;
    pending[v] = vertices_[v].fanin.size();
    if (pending[v] == 0) ready.push_back(v);
  }
  std::vector<VertexId> order;
  order.reserve(live_vertices_);
  for (size_t head = 0; head < ready.size(); ++head) {
    const VertexId v = ready[head];
    order.push_back(v);
    for (EdgeId e : vertices_[v].fanout) {
      const VertexId w = edges_[e].to;
      HSSTA_ASSERT(pending[w] > 0, "topo underflow");
      if (--pending[w] == 0) ready.push_back(w);
    }
  }
  HSSTA_REQUIRE(order.size() == live_vertices_,
                "timing graph contains a cycle");
  return order;
}

std::shared_ptr<const LevelStructure> TimingGraph::cached_levels() const {
  const std::lock_guard<std::mutex> lock(levels_mu_);
  return levels_;
}

std::shared_ptr<const LevelStructure> TimingGraph::levels() const {
  const std::lock_guard<std::mutex> lock(levels_mu_);
  if (levels_) return levels_;

  auto ls = std::make_shared<LevelStructure>();
  ls->order = topo_order();  // throws on cycles before any state is touched
  ls->level_of.assign(vertices_.size(), kNoLevel);
  for (VertexId v : ls->order) {
    uint32_t level = 0;
    for (EdgeId e : vertices_[v].fanin) {
      const uint32_t from_level = ls->level_of[edges_[e].from];
      HSSTA_ASSERT(from_level != kNoLevel, "levelization out of order");
      level = std::max(level, from_level + 1);
    }
    ls->level_of[v] = level;
  }
  // Kahn's ready queue pops levels in nondecreasing order (a vertex of
  // level l+1 is enqueued while level <= l pops are still draining), so the
  // buckets are contiguous runs of `order`.
  ls->offsets.push_back(0);
  for (size_t k = 1; k < ls->order.size(); ++k) {
    const uint32_t prev = ls->level_of[ls->order[k - 1]];
    const uint32_t cur = ls->level_of[ls->order[k]];
    HSSTA_ASSERT(cur >= prev, "topo order not level-sorted");
    if (cur != prev) ls->offsets.push_back(k);
  }
  if (!ls->order.empty()) ls->offsets.push_back(ls->order.size());

  levels_ = std::move(ls);
  return levels_;
}

std::vector<uint8_t> TimingGraph::reachable_from(VertexId v) const {
  HSSTA_REQUIRE(vertex_alive(v), "reachability from dead vertex");
  std::vector<uint8_t> seen(vertices_.size(), 0);
  std::vector<VertexId> stack{v};
  seen[v] = 1;
  while (!stack.empty()) {
    const VertexId u = stack.back();
    stack.pop_back();
    for (EdgeId e : vertices_[u].fanout) {
      const VertexId w = edges_[e].to;
      if (!seen[w]) {
        seen[w] = 1;
        stack.push_back(w);
      }
    }
  }
  return seen;
}

std::vector<uint8_t> TimingGraph::reaches(VertexId v) const {
  HSSTA_REQUIRE(vertex_alive(v), "reachability to dead vertex");
  std::vector<uint8_t> seen(vertices_.size(), 0);
  std::vector<VertexId> stack{v};
  seen[v] = 1;
  while (!stack.empty()) {
    const VertexId u = stack.back();
    stack.pop_back();
    for (EdgeId e : vertices_[u].fanin) {
      const VertexId w = edges_[e].from;
      if (!seen[w]) {
        seen[w] = 1;
        stack.push_back(w);
      }
    }
  }
  return seen;
}

void TimingGraph::validate() const {
  for (EdgeId e = 0; e < edges_.size(); ++e) {
    if (!edge_alive_[e]) continue;
    const TimingEdge& te = edges_[e];
    HSSTA_REQUIRE(vertex_alive(te.from) && vertex_alive(te.to),
                  "live edge with dead endpoint");
    const auto& fo = vertices_[te.from].fanout;
    const auto& fi = vertices_[te.to].fanin;
    HSSTA_REQUIRE(std::find(fo.begin(), fo.end(), e) != fo.end(),
                  "edge missing from fanout adjacency");
    HSSTA_REQUIRE(std::find(fi.begin(), fi.end(), e) != fi.end(),
                  "edge missing from fanin adjacency");
  }
  for (VertexId v = 0; v < vertices_.size(); ++v) {
    if (!vertex_alive_[v]) continue;
    const TimingVertex& tv = vertices_[v];
    if (tv.is_input)
      HSSTA_REQUIRE(tv.fanin.empty(), "input port with fanin: " + tv.name);
    for (EdgeId e : tv.fanin)
      HSSTA_REQUIRE(edge_alive(e) && edges_[e].to == v,
                    "stale fanin adjacency");
    for (EdgeId e : tv.fanout)
      HSSTA_REQUIRE(edge_alive(e) && edges_[e].from == v,
                    "stale fanout adjacency");
  }
  (void)topo_order();  // throws on cycles
}

}  // namespace hssta::timing
