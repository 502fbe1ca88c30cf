/// \file graph.hpp
/// The timing graph of the paper (Section II): vertices are circuit pins
/// (one per primary input and one per gate output, matching Table I's
/// vertex accounting), edges are pin-to-pin delays in canonical form.
/// Ports (module inputs/outputs) are flagged vertices; model extraction may
/// delete internal vertices and edges, so both use tombstones with live
/// counts, and fanin/fanout adjacency is maintained on removal.

#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "hssta/timing/canonical.hpp"
#include "hssta/variation/space.hpp"

namespace hssta::timing {

using VertexId = uint32_t;
using EdgeId = uint32_t;
inline constexpr VertexId kNoVertex = std::numeric_limits<VertexId>::max();
inline constexpr EdgeId kNoEdge = std::numeric_limits<EdgeId>::max();

/// A sweep-schedule selector with the single value kAuto: every sweep has
/// one schedule, and nothing reads it. It is only the type of the two
/// unused fields flow::Config::level_parallel and
/// core::CriticalityOptions::level_parallel (see there).
enum class LevelParallel { kAuto };

struct TimingVertex {
  std::string name;
  bool is_input = false;
  bool is_output = false;
  std::vector<EdgeId> fanin;   ///< live incoming edges
  std::vector<EdgeId> fanout;  ///< live outgoing edges
};

struct TimingEdge {
  VertexId from = kNoVertex;
  VertexId to = kNoVertex;
  CanonicalForm delay;
};

class TimingGraph {
 public:
  /// Graph over a variation space (the usual case).
  explicit TimingGraph(std::shared_ptr<const variation::VariationSpace> space);

  /// Space-less graph of a given coefficient dimension (tests, synthetic
  /// fixtures).
  explicit TimingGraph(size_t dim);

  /// Copies share the (immutable) topological-order cache; moves transfer
  /// it. Spelled out because the cache guard mutex is neither.
  TimingGraph(const TimingGraph& other);
  TimingGraph& operator=(const TimingGraph& other);
  TimingGraph(TimingGraph&& other) noexcept;
  TimingGraph& operator=(TimingGraph&& other) noexcept;

  /// --- construction / mutation -------------------------------------------

  VertexId add_vertex(std::string name, bool is_input = false,
                      bool is_output = false);
  /// Adds an edge; the delay's dimension must match the graph's.
  EdgeId add_edge(VertexId from, VertexId to, CanonicalForm delay);
  /// Removes a live edge and detaches it from its endpoints' adjacency.
  void remove_edge(EdgeId e);
  /// Removes a live, non-port vertex with no live edges.
  void remove_vertex(VertexId v);

  /// --- access --------------------------------------------------------------

  [[nodiscard]] size_t dim() const { return dim_; }
  [[nodiscard]] const std::shared_ptr<const variation::VariationSpace>& space()
      const {
    return space_;
  }

  [[nodiscard]] size_t num_vertex_slots() const { return vertices_.size(); }
  [[nodiscard]] size_t num_edge_slots() const { return edges_.size(); }
  [[nodiscard]] size_t num_live_vertices() const { return live_vertices_; }
  [[nodiscard]] size_t num_live_edges() const { return live_edges_; }

  [[nodiscard]] bool vertex_alive(VertexId v) const;
  [[nodiscard]] bool edge_alive(EdgeId e) const;

  /// Read-only: adjacency changes go through the mutators above, which
  /// keep the cached topological order in step.
  [[nodiscard]] const TimingVertex& vertex(VertexId v) const;
  [[nodiscard]] TimingEdge& edge(EdgeId e);
  [[nodiscard]] const TimingEdge& edge(EdgeId e) const;

  /// Port lists in creation order (ports are never removed).
  [[nodiscard]] const std::vector<VertexId>& inputs() const { return inputs_; }
  [[nodiscard]] const std::vector<VertexId>& outputs() const {
    return outputs_;
  }

  /// Linear scan by name over live vertices; kNoVertex if absent.
  [[nodiscard]] VertexId find_vertex(const std::string& name) const;

  /// --- analysis -------------------------------------------------------------

  /// Live vertices in topological order (Kahn's algorithm: fanin-free
  /// vertices in slot order first, then each vertex once its last fanin has
  /// been emitted); throws on cycles. Every sweep walks this one order —
  /// reverse sweeps iterate it backwards. Built on first use and cached:
  /// copies of the graph share the cache, and add_vertex, add_edge,
  /// remove_edge and remove_vertex drop it. Like a container's iterators,
  /// the reference stays valid until the next such mutation; edge delay
  /// writes keep it. Thread-safe against concurrent const readers (one of
  /// them builds, all see the same vector); like every other accessor it
  /// must not race with mutation.
  [[nodiscard]] const std::vector<VertexId>& topo_order() const;

  /// vertex-indexed flags: reachable from `v` along live edges (v included).
  [[nodiscard]] std::vector<uint8_t> reachable_from(VertexId v) const;
  /// vertex-indexed flags: can reach `v` along live edges (v included).
  [[nodiscard]] std::vector<uint8_t> reaches(VertexId v) const;

  /// Structural checks: live edges join live vertices, inputs have no
  /// fanin, adjacency is consistent, graph is acyclic.
  void validate() const;

 private:
  /// Drop the cached topological order (called by every structural
  /// mutation).
  void invalidate_order();
  /// The current cache, possibly null — copies share it without forcing a
  /// build.
  [[nodiscard]] std::shared_ptr<const std::vector<VertexId>> cached_order()
      const;

  std::shared_ptr<const variation::VariationSpace> space_;
  size_t dim_ = 0;
  std::vector<TimingVertex> vertices_;
  std::vector<TimingEdge> edges_;
  std::vector<uint8_t> vertex_alive_;
  std::vector<uint8_t> edge_alive_;
  std::vector<VertexId> inputs_;
  std::vector<VertexId> outputs_;
  size_t live_vertices_ = 0;
  size_t live_edges_ = 0;

  /// Lazily built topological order; guarded so concurrent const readers
  /// share one build. Immutable once built: mutation drops the pointer,
  /// never edits the pointed-to vector, so copies can share it.
  mutable std::mutex order_mu_;
  mutable std::shared_ptr<const std::vector<VertexId>> order_;
};

}  // namespace hssta::timing
