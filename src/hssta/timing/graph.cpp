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
      order_(other.cached_order()) {}

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
  order_ = other.cached_order();
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
      order_(std::move(other.order_)) {}

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
  order_ = std::move(other.order_);
  return *this;
}

void TimingGraph::invalidate_order() {
  const std::lock_guard<std::mutex> lock(order_mu_);
  order_.reset();
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
  invalidate_order();
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
  invalidate_order();
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
  invalidate_order();
}

void TimingGraph::remove_vertex(VertexId v) {
  HSSTA_REQUIRE(vertex_alive(v), "removing a dead vertex");
  const TimingVertex& tv = vertices_[v];
  HSSTA_REQUIRE(!tv.is_input && !tv.is_output, "ports cannot be removed");
  HSSTA_REQUIRE(tv.fanin.empty() && tv.fanout.empty(),
                "vertex still has live edges");
  vertex_alive_[v] = 0;
  --live_vertices_;
  invalidate_order();
}

bool TimingGraph::vertex_alive(VertexId v) const {
  return v < vertices_.size() && vertex_alive_[v] != 0;
}

bool TimingGraph::edge_alive(EdgeId e) const {
  return e < edges_.size() && edge_alive_[e] != 0;
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

const std::vector<VertexId>& TimingGraph::topo_order() const {
  const std::lock_guard<std::mutex> lock(order_mu_);
  if (order_) return *order_;

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
  // Throws before caching: a cyclic graph keeps no order.
  HSSTA_REQUIRE(order.size() == live_vertices_,
                "timing graph contains a cycle");
  order_ = std::make_shared<const std::vector<VertexId>>(std::move(order));
  return *order_;
}

std::shared_ptr<const std::vector<VertexId>> TimingGraph::cached_order()
    const {
  const std::lock_guard<std::mutex> lock(order_mu_);
  return order_;
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
