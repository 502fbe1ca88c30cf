#include "hssta/incr/design_state.hpp"

#include <algorithm>
#include <utility>

#include "hssta/timing/statops.hpp"
#include "hssta/util/error.hpp"
#include "hssta/util/timer.hpp"

namespace hssta::incr {

using timing::CanonicalForm;
using timing::EdgeId;
using timing::TimingGraph;
using timing::VertexId;

namespace {

/// Can `next` replace `prev` for instance `t` without invalidating the
/// stitched coefficient layout? Requires an identical footprint: same die,
/// same characterization grid partition, bitwise-identical parameters and
/// correlation profile (the design space is built from these; any drift
/// would change its PCA), and in global-only mode the same spatial
/// component count (the private slot ranges of *later* instances shift
/// otherwise).
bool geometry_compatible(const model::TimingModel& prev,
                         const model::TimingModel& next,
                         hier::CorrelationMode mode) {
  const placement::Die& da = prev.die();
  const placement::Die& db = next.die();
  if (da.width != db.width || da.height != db.height) return false;

  const variation::GridPartition& pa = prev.variation().partition;
  const variation::GridPartition& pb = next.variation().partition;
  if (pa.nx() != pb.nx() || pa.ny() != pb.ny()) return false;

  const variation::VariationSpace& sa = *prev.variation().space;
  const variation::VariationSpace& sb = *next.variation().space;
  const variation::ParameterSet& qa = sa.parameters();
  const variation::ParameterSet& qb = sb.parameters();
  if (qa.size() != qb.size() || qa.load_sigma_rel != qb.load_sigma_rel)
    return false;
  for (size_t p = 0; p < qa.size(); ++p) {
    const variation::ProcessParameter& a = qa.at(p);
    const variation::ProcessParameter& b = qb.at(p);
    if (a.name != b.name || a.sigma_rel != b.sigma_rel ||
        a.global_frac != b.global_frac || a.local_frac != b.local_frac ||
        a.random_frac != b.random_frac)
      return false;
  }
  const variation::SpatialCorrelationConfig& ca =
      sa.correlation_model().config();
  const variation::SpatialCorrelationConfig& cb =
      sb.correlation_model().config();
  if (ca.rho_neighbor != cb.rho_neighbor || ca.rho_global != cb.rho_global ||
      ca.cutoff != cb.cutoff)
    return false;

  if (mode == hier::CorrelationMode::kGlobalOnly &&
      sa.num_components() != sb.num_components())
    return false;
  return true;
}

}  // namespace

DesignState::DesignState(DesignInputs inputs, hier::HierOptions opts)
    : inputs_(std::move(inputs)), opts_(std::move(opts)) {
  HSSTA_REQUIRE(!inputs_.instances.empty(),
                "incremental design '" + inputs_.name + "' has no instances");
  for (const InstanceSpec& inst : inputs_.instances)
    HSSTA_REQUIRE(inst.model != nullptr,
                  "instance '" + inst.name + "' has no timing model");
  inst_dirty_.assign(inputs_.instances.size(), 0);
  conn_dirty_.assign(inputs_.connections.size(), 0);
}

size_t DesignState::num_params() const {
  return inputs_.instances.front().model->variation().space->num_params();
}

hier::HierDesign DesignState::make_view() const {
  placement::Die die;
  if (inputs_.fixed_die) {
    die = *inputs_.fixed_die;
  } else {
    double w = 0.0, h = 0.0;
    for (const InstanceSpec& inst : inputs_.instances) {
      const placement::Die& mdie = inst.model->die();
      w = std::max(w, inst.origin.x + mdie.width);
      h = std::max(h, inst.origin.y + mdie.height);
    }
    die = placement::Die{w, h};
  }
  hier::HierDesign d(inputs_.name, die);
  for (const InstanceSpec& inst : inputs_.instances)
    d.add_instance(hier::ModuleInstance{inst.name, inst.model.get(),
                                        inst.origin, nullptr, nullptr});
  for (const hier::Connection& c : inputs_.connections) d.add_connection(c);
  for (const hier::PrimaryInput& pi : inputs_.primary_inputs)
    d.add_primary_input(pi);
  for (const hier::PrimaryOutput& po : inputs_.primary_outputs)
    d.add_primary_output(po);
  return d;
}

// --- change API -------------------------------------------------------------

void DesignState::replace_module(
    size_t inst, std::shared_ptr<const model::TimingModel> model) {
  HSSTA_REQUIRE(inst < inputs_.instances.size(),
                "replace_module: instance index out of range");
  HSSTA_REQUIRE(model != nullptr, "replace_module: null model");
  const bool compatible = geometry_compatible(*inputs_.instances[inst].model,
                                              *model, opts_.mode);
  inputs_.instances[inst].model = std::move(model);
  if (compatible)
    inst_dirty_[inst] = 1;
  else
    full_rebuild_ = true;
}

void DesignState::move_instance(size_t inst, double x, double y) {
  HSSTA_REQUIRE(inst < inputs_.instances.size(),
                "move_instance: instance index out of range");
  placement::Point& origin = inputs_.instances[inst].origin;
  if (origin.x == x && origin.y == y) return;
  origin = placement::Point{x, y};
  // The design grid, its PCA and so the coefficient layout follow the
  // placement: a move is a full stitch.
  full_rebuild_ = true;
}

void DesignState::rewire_connection(size_t conn, hier::PortRef from_output,
                                    hier::PortRef to_input) {
  HSSTA_REQUIRE(conn < inputs_.connections.size(),
                "rewire_connection: connection index out of range");
  hier::Connection& c = inputs_.connections[conn];
  if (c.from_output == from_output && c.to_input == to_input) return;
  // Remember the currently *stitched* target once per flush: if the old
  // boundary edge dies with a restitched instance before
  // restitch_connection runs, this is the vertex that silently lost its
  // driver and must still re-propagate.
  if (!conn_dirty_[conn]) rewire_old_targets_[conn] = c.to_input;
  c = hier::Connection{from_output, to_input};
  conn_dirty_[conn] = 1;
}

void DesignState::set_parameter_sigma(size_t param, double scale) {
  HSSTA_REQUIRE(param < num_params(),
                "set_parameter_sigma: parameter index out of range");
  HSSTA_REQUIRE(scale >= 0.0, "set_parameter_sigma: negative scale");
  std::vector<double>& s = opts_.param_sigma_scale;
  if (s.empty()) s.assign(num_params(), 1.0);
  if (s[param] == scale) return;
  s[param] = scale;
  coeffs_dirty_ = true;
}

bool DesignState::pending() const {
  return full_rebuild_ || coeffs_dirty_ ||
         std::find(inst_dirty_.begin(), inst_dirty_.end(), 1) !=
             inst_dirty_.end() ||
         std::find(conn_dirty_.begin(), conn_dirty_.end(), 1) !=
             conn_dirty_.end();
}

void DesignState::clear_pending() {
  full_rebuild_ = false;
  coeffs_dirty_ = false;
  inst_dirty_.assign(inputs_.instances.size(), 0);
  conn_dirty_.assign(inputs_.connections.size(), 0);
  rewire_old_targets_.clear();
}

// --- derived-state maintenance ----------------------------------------------

void DesignState::recompute_sigma_multipliers() {
  std::vector<size_t> slots(inputs_.instances.size(), 0);
  std::vector<size_t> components(inputs_.instances.size(), 0);
  for (size_t t = 0; t < inputs_.instances.size(); ++t) {
    slots[t] = st_->instances[t].private_slot;
    components[t] =
        inputs_.instances[t].model->variation().space->num_components();
  }
  sigma_mult_ = hier::sigma_multipliers(opts_, st_->total_dim, num_params(),
                                        st_->design_space.get(), slots,
                                        components);
}

void DesignState::full_build(const hier::HierDesign& view) {
  st_ = hier::stitch_design(view, opts_);
  recompute_sigma_multipliers();
  ++stats_.full_builds;
}

void DesignState::refresh_coefficients() {
  TimingGraph& g = st_->graph;
  recompute_sigma_multipliers();

  // Each instance edge is its cached unscaled row times the multipliers:
  // the arithmetic of a from-scratch stitch, whose remap produced the row.
  for (const hier::InstanceStitch& st : st_->instances) {
    const timing::FormBank& unscaled = *st.unscaled;
    for (EdgeId e = 0; e < st.edge_map.size(); ++e) {
      if (st.edge_map[e] == timing::kNoEdge) continue;
      CanonicalForm& d = g.edge(st.edge_map[e]).delay;
      timing::form_copy(d.view(), unscaled.row(e));
      hier::apply_sigma_scale(sigma_mult_, d);
    }
  }
  ++stats_.coefficient_refreshes;
}

void DesignState::restitch_instance(const hier::HierDesign& view, size_t t,
                                    std::vector<VertexId>& seeds) {
  TimingGraph& g = st_->graph;
  hier::InstanceStitch& st = st_->instances[t];

  // Drop the old subgraph, taking every boundary edge touching it along.
  for (VertexId v : st.vertex_map) {
    if (v == timing::kNoVertex || !g.vertex_alive(v)) continue;
    while (!g.vertex(v).fanin.empty()) g.remove_edge(g.vertex(v).fanin.back());
    while (!g.vertex(v).fanout.empty())
      g.remove_edge(g.vertex(v).fanout.back());
    g.remove_vertex(v);
  }

  // Stitch the (possibly new) model in — the same helper, remapper and
  // sigma scaling the from-scratch stitch uses, so every edge delay comes
  // out bit-identical. The helper gives the instance a new unscaled bank;
  // copies of this state keep reading the old one.
  const hier::ModuleInstance& inst = view.instances()[t];
  const variation::VariationSpace& mspace = *inst.model->variation().space;
  const hier::InstanceRemapper remap =
      opts_.mode == hier::CorrelationMode::kReplacement
          ? hier::InstanceRemapper::replacement(mspace, *st_->design_space,
                                                st_->grid.instance_grids[t])
          : hier::InstanceRemapper::global_only(mspace, st_->total_dim,
                                                num_params(),
                                                st.private_slot);
  st.r = remap.r();
  hier::stitch_instance_subgraph(g, inst, remap, sigma_mult_, st);
  for (VertexId v : st.vertex_map)
    if (v != timing::kNoVertex) seeds.push_back(v);

  // Reconnect the boundary: connections, primary inputs and outputs that
  // touch the instance (their old edges died with the subgraph). Pending
  // rewires are left to restitch_connection, which still holds the OLD
  // edge id — re-adding such a connection here (by its already-updated
  // endpoints) would orphan an old edge whose endpoints touch neither
  // restitched instance, silently corrupting the graph.
  for (size_t c = 0; c < inputs_.connections.size(); ++c) {
    if (conn_dirty_[c]) continue;
    const hier::Connection& cn = inputs_.connections[c];
    if (cn.from_output.instance != t && cn.to_input.instance != t) continue;
    const EdgeId e =
        g.add_edge(st_->output_vertex(view, cn.from_output),
                   st_->input_vertex(view, cn.to_input),
                   hier::connection_delay(view, opts_, cn, st_->total_dim));
    st_->connection_edges[c] = e;
    seeds.push_back(g.edge(e).to);
  }
  for (size_t i = 0; i < inputs_.primary_inputs.size(); ++i) {
    const hier::PrimaryInput& pi = inputs_.primary_inputs[i];
    for (size_t s = 0; s < pi.sinks.size(); ++s) {
      if (pi.sinks[s].instance != t) continue;
      st_->pi_edges[i][s] =
          g.add_edge(st_->pi_vertices[i], st_->input_vertex(view, pi.sinks[s]),
                     CanonicalForm(st_->total_dim));
    }
  }
  for (size_t p = 0; p < inputs_.primary_outputs.size(); ++p) {
    const hier::PrimaryOutput& po = inputs_.primary_outputs[p];
    if (po.source.instance != t) continue;
    st_->po_edges[p] =
        g.add_edge(st_->output_vertex(view, po.source), st_->po_vertices[p],
                   CanonicalForm(st_->total_dim));
    seeds.push_back(st_->po_vertices[p]);
  }
  ++stats_.instances_restitched;
}

void DesignState::restitch_connection(const hier::HierDesign& view, size_t c,
                                      std::vector<VertexId>& seeds) {
  TimingGraph& g = st_->graph;
  const EdgeId old = st_->connection_edges[c];
  if (old != timing::kNoEdge && g.edge_alive(old)) {
    seeds.push_back(g.edge(old).to);  // the abandoned target loses a driver
    g.remove_edge(old);
  } else if (const auto it = rewire_old_targets_.find(c);
             it != rewire_old_targets_.end()) {
    // The old edge died with a restitched instance's subgraph. The
    // abandoned target still lost its driver; resolve it through the
    // *current* maps (a restitched target maps to its fresh vertex, which
    // is already seeded — a harmless duplicate). Guard the port range: a
    // swapped-in model may have fewer inputs than the stitched one had.
    const hier::PortRef& r = it->second;
    const timing::TimingGraph& mg = view.instances()[r.instance].model->graph();
    if (r.port < mg.inputs().size()) {
      const VertexId v = st_->input_vertex(view, r);
      if (v != timing::kNoVertex && g.vertex_alive(v)) seeds.push_back(v);
    }
  }
  const hier::Connection& cn = inputs_.connections[c];
  const EdgeId e =
      g.add_edge(st_->output_vertex(view, cn.from_output),
                 st_->input_vertex(view, cn.to_input),
                 hier::connection_delay(view, opts_, cn, st_->total_dim));
  st_->connection_edges[c] = e;
  seeds.push_back(g.edge(e).to);
  ++stats_.connections_restitched;
}

// --- propagation ------------------------------------------------------------

void DesignState::propagate_full() {
  timing::propagate_arrivals_into(st_->graph, {}, arrivals_);
  stats_.vertices_recomputed = st_->graph.num_live_vertices();
}

void DesignState::propagate_cone(const std::vector<VertexId>& seeds) {
  TimingGraph& g = st_->graph;
  const size_t slots = g.num_vertex_slots();
  // Grow the arrival bank for freshly stitched vertex slots (new rows are
  // zero forms); stale entries of dead slots are never read.
  if (arrivals_.time.dim() != st_->total_dim)
    arrivals_.time.reset(slots, st_->total_dim);
  else
    arrivals_.time.resize_rows(slots);
  arrivals_.valid.resize(slots, 0);
  arrivals_.diagnostics = timing::MaxDiagnostics{};

  std::vector<uint8_t> dirty(slots, 0);
  for (VertexId v : seeds)
    if (g.vertex_alive(v) && !g.vertex(v).is_input) dirty[v] = 1;

  // Walk the topological order and recompute each dirty vertex's arrival
  // from its (stable, earlier) fanins with the full sweep's fold. Dirty
  // vertices are never sources, and the cone keeps no max diagnostics. A
  // bit-identical recomputation stops the cone; only genuinely changed
  // vertices dirty their (later) fanouts.
  const CanonicalForm zero(st_->total_dim);
  CanonicalForm candidate = zero;
  CanonicalForm next = zero;
  size_t recomputed = 0;
  for (VertexId v : g.topo_order()) {
    if (!dirty[v]) continue;
    ++recomputed;
    const bool has = timing::fold_fanin(g, v, arrivals_, next.view(),
                                        candidate.view(), /*seeded=*/false,
                                        /*diag=*/nullptr);
    if (!has) next = zero;  // an unreached vertex keeps a zero row
    const uint8_t nv = has ? 1 : 0;
    const bool changed =
        nv != arrivals_.valid[v] ||
        (has && !timing::form_equal(next.view(), arrivals_.time.row(v)));
    arrivals_.time.store(v, next);
    arrivals_.valid[v] = nv;
    if (!changed) continue;
    for (EdgeId e : g.vertex(v).fanout) dirty[g.edge(e).to] = 1;
  }
  stats_.vertices_recomputed = recomputed;
}

// --- analyze ----------------------------------------------------------------

const CanonicalForm& DesignState::analyze() {
  if (!pending()) return delay_;
  WallTimer timer;
  ++stats_.analyses;
  stats_.vertices_recomputed = 0;

  const hier::HierDesign view = make_view();
  // Validate up front so an invalid change (out-of-range port, input driven
  // twice, instance off-die) throws the same error a from-scratch build
  // would — before any derived state is touched.
  view.validate();

  try {
    if (full_rebuild_) {
      full_build(view);
      propagate_full();
    } else {
      std::vector<VertexId> seeds;
      for (size_t t = 0; t < inst_dirty_.size(); ++t)
        if (inst_dirty_[t]) restitch_instance(view, t, seeds);
      for (size_t c = 0; c < conn_dirty_.size(); ++c)
        if (conn_dirty_[c]) restitch_connection(view, c, seeds);
      if (coeffs_dirty_) {
        refresh_coefficients();
        propagate_full();
      } else if (!seeds.empty()) {
        propagate_cone(seeds);
      }
    }
    delay_ = timing::circuit_delay(st_->graph, arrivals_, nullptr);
  } catch (...) {
    // Derived state may be half-updated (e.g. an output became
    // unreachable mid-restitch); recover from scratch next time.
    full_rebuild_ = true;
    throw;
  }

  clear_pending();
  stats_.vertices_live = st_->graph.num_live_vertices();
  stats_.last_seconds = timer.seconds();
  return delay_;
}

// --- views ------------------------------------------------------------------

const CanonicalForm& DesignState::delay() const {
  HSSTA_REQUIRE(st_.has_value(), "design not analyzed yet");
  return delay_;
}

const TimingGraph& DesignState::graph() const {
  HSSTA_REQUIRE(st_.has_value(), "design not analyzed yet");
  return st_->graph;
}

const timing::PropagationResult& DesignState::arrivals() const {
  HSSTA_REQUIRE(st_.has_value(), "design not analyzed yet");
  return arrivals_;
}

std::optional<CanonicalForm> DesignState::arrival(
    const std::string& name) const {
  HSSTA_REQUIRE(st_.has_value(), "design not analyzed yet");
  const VertexId v = st_->graph.find_vertex(name);
  if (v == timing::kNoVertex || v >= arrivals_.valid.size() ||
      !arrivals_.valid[v])
    return std::nullopt;
  return arrivals_.time.form(v);
}

std::shared_ptr<const variation::VariationSpace> DesignState::design_space()
    const {
  HSSTA_REQUIRE(st_.has_value(), "design not analyzed yet");
  return st_->design_space;
}

const hier::DesignGrid& DesignState::grid() const {
  HSSTA_REQUIRE(st_.has_value(), "design not analyzed yet");
  return st_->grid;
}

}  // namespace hssta::incr
