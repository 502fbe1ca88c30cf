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
#include <span>
#include <string>
#include <vector>

#include "hssta/timing/canonical.hpp"
#include "hssta/variation/space.hpp"

namespace hssta::timing {

using VertexId = uint32_t;
using EdgeId = uint32_t;
inline constexpr VertexId kNoVertex = std::numeric_limits<VertexId>::max();
inline constexpr EdgeId kNoEdge = std::numeric_limits<EdgeId>::max();
inline constexpr uint32_t kNoLevel = std::numeric_limits<uint32_t>::max();

/// A sweep-schedule selector with the single value kAuto: every sweep has
/// one schedule, and nothing reads it. It is only the type of the two
/// unused fields flow::Config::level_parallel and
/// core::CriticalityOptions::level_parallel (see there).
enum class LevelParallel { kAuto };

/// Levelization of the live graph: level(v) = 0 for fanin-free vertices,
/// otherwise 1 + max level over fanin sources, so every live edge goes to a
/// strictly higher level. `order` equals topo_order() exactly (Kahn's ready
/// queue pops levels in nondecreasing order), and the buckets partition it
/// contiguously — bucket l is the span order[offsets[l], offsets[l+1]).
/// Vertices within one level share no edges. The incremental cone sweep
/// walks `order` to visit only dirty vertices in topological order, and
/// criticality derives its backward gather plan from it.
struct LevelStructure {
  std::vector<VertexId> order;    ///< == topo_order(), grouped by level
  std::vector<size_t> offsets;    ///< bucket boundaries; size num_levels()+1
  std::vector<uint32_t> level_of; ///< per vertex slot; kNoLevel when dead

  [[nodiscard]] size_t num_levels() const {
    return offsets.empty() ? 0 : offsets.size() - 1;
  }
  [[nodiscard]] std::span<const VertexId> bucket(size_t level) const {
    return std::span<const VertexId>(order).subspan(
        offsets[level], offsets[level + 1] - offsets[level]);
  }
};

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

  /// Copies share the (immutable) levelization cache; moves transfer it.
  /// Spelled out because the cache guard mutex is neither.
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

  /// Swap the variation-space annotation for another space of the *same*
  /// dimension (checked). Used by the incremental design engine when a
  /// geometry change rebuilds the design space but the coefficient layout
  /// — and therefore every stored CanonicalForm — keeps its width; the
  /// caller is responsible for refreshing the coefficients themselves.
  void reset_space(std::shared_ptr<const variation::VariationSpace> space);

  [[nodiscard]] size_t num_vertex_slots() const { return vertices_.size(); }
  [[nodiscard]] size_t num_edge_slots() const { return edges_.size(); }
  [[nodiscard]] size_t num_live_vertices() const { return live_vertices_; }
  [[nodiscard]] size_t num_live_edges() const { return live_edges_; }

  [[nodiscard]] bool vertex_alive(VertexId v) const;
  [[nodiscard]] bool edge_alive(EdgeId e) const;

  [[nodiscard]] TimingVertex& vertex(VertexId v);
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

  /// Live vertices in topological order; throws on cycles.
  [[nodiscard]] std::vector<VertexId> topo_order() const;

  /// Cached levelization (see LevelStructure); built on first use, shared
  /// until the next mutation invalidates it, throws on cycles. The returned
  /// snapshot stays valid (and consistent) even if the graph is mutated
  /// afterwards — callers hold the shared_ptr for as long as they sweep.
  /// Thread-safe against concurrent levels()/topo_order() readers; like
  /// every other accessor it must not race with mutation.
  [[nodiscard]] std::shared_ptr<const LevelStructure> levels() const;

  /// vertex-indexed flags: reachable from `v` along live edges (v included).
  [[nodiscard]] std::vector<uint8_t> reachable_from(VertexId v) const;
  /// vertex-indexed flags: can reach `v` along live edges (v included).
  [[nodiscard]] std::vector<uint8_t> reaches(VertexId v) const;

  /// Structural checks: live edges join live vertices, inputs have no
  /// fanin, adjacency is consistent, graph is acyclic.
  void validate() const;

 private:
  /// Drop the cached levelization (called by every mutation).
  void invalidate_levels();
  /// The current cache, possibly null — copies share it without forcing a
  /// build.
  [[nodiscard]] std::shared_ptr<const LevelStructure> cached_levels() const;

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

  /// Lazily built levelization; guarded so concurrent const readers share
  /// one build. An immutable snapshot: mutation replaces the pointer, never
  /// the pointed-to structure.
  mutable std::mutex levels_mu_;
  mutable std::shared_ptr<const LevelStructure> levels_;
};

}  // namespace hssta::timing
