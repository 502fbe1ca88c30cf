#include "hssta/hier/stitch.hpp"

#include <utility>

#include "hssta/util/error.hpp"

namespace hssta::hier {

using timing::CanonicalForm;
using timing::EdgeId;
using timing::TimingGraph;
using timing::VertexId;

InstanceRemapper InstanceRemapper::replacement(
    const variation::VariationSpace& module_space,
    const variation::VariationSpace& design_space,
    std::span<const size_t> design_grids) {
  InstanceRemapper out;
  out.module_space_ = &module_space;
  out.design_space_ = &design_space;
  out.r_ = replacement_matrix(module_space, design_space, design_grids);
  return out;
}

InstanceRemapper InstanceRemapper::global_only(
    const variation::VariationSpace& module_space, size_t total_dim,
    size_t num_params, size_t spatial_slot) {
  InstanceRemapper out;
  out.module_space_ = &module_space;
  out.total_dim_ = total_dim;
  out.num_params_ = num_params;
  out.spatial_slot_ = spatial_slot;
  return out;
}

CanonicalForm InstanceRemapper::operator()(const CanonicalForm& form) const {
  if (design_space_)
    return remap_canonical(form, *module_space_, *design_space_, r_);
  // Global-only: globals to the shared head, spatial blocks to this
  // instance's private range.
  CanonicalForm out(total_dim_);
  out.set_nominal(form.nominal());
  out.set_random(form.random());
  const size_t k = module_space_->num_components();
  for (size_t p = 0; p < num_params_; ++p) {
    out.corr()[p] = form.corr()[module_space_->global_index(p)];
    for (size_t j = 0; j < k; ++j)
      out.corr()[spatial_slot_ + p * k + j] =
          form.corr()[module_space_->spatial_offset(p) + j];
  }
  return out;
}

CanonicalForm connection_delay(const HierDesign& design,
                               const HierOptions& opts, const Connection& c,
                               size_t total_dim) {
  CanonicalForm d = CanonicalForm::constant(opts.interconnect_delay,
                                            total_dim);
  if (opts.load_aware_boundary) {
    const auto& instances = design.instances();
    const ModuleInstance& src = instances[c.from_output.instance];
    const ModuleInstance& dst = instances[c.to_input.instance];
    const double drive =
        src.model->boundary().output_drive_res[c.from_output.port];
    const double cap = dst.model->boundary().input_cap[c.to_input.port];
    const double extra = drive * cap;
    d.add_nominal(extra);
    const double load_sigma =
        src.model->variation().space->parameters().load_sigma_rel;
    d.set_random(extra * load_sigma);
  }
  return d;
}

std::vector<double> sigma_multipliers(
    const HierOptions& opts, size_t total_dim, size_t num_params,
    const variation::VariationSpace* design_space,
    std::span<const size_t> private_slots,
    std::span<const size_t> private_components) {
  const auto& scale = opts.param_sigma_scale;
  HSSTA_REQUIRE(scale.empty() || scale.size() == num_params,
                "param_sigma_scale needs one entry per parameter");
  bool trivial = true;
  for (double s : scale) trivial = trivial && s == 1.0;
  if (trivial) return {};

  std::vector<double> mult(total_dim, 1.0);
  if (design_space != nullptr) {
    for (size_t p = 0; p < num_params; ++p) {
      mult[design_space->global_index(p)] = scale[p];
      const size_t k = design_space->num_components();
      for (size_t j = 0; j < k; ++j)
        mult[design_space->spatial_offset(p) + j] = scale[p];
    }
  } else {
    // Global-only layout: shared globals, then per-instance private blocks
    // of num_params * components[t] slots each.
    for (size_t p = 0; p < num_params; ++p) mult[p] = scale[p];
    for (size_t t = 0; t < private_slots.size(); ++t) {
      const size_t k = private_components[t];
      for (size_t p = 0; p < num_params; ++p)
        for (size_t j = 0; j < k; ++j)
          mult[private_slots[t] + p * k + j] = scale[p];
    }
  }
  return mult;
}

void apply_sigma_scale(std::span<const double> multipliers,
                       CanonicalForm& form) {
  if (multipliers.empty()) return;
  HSSTA_REQUIRE(multipliers.size() == form.dim(),
                "sigma multipliers do not match the form dimension");
  const std::span<double> corr = form.corr();
  for (size_t i = 0; i < corr.size(); ++i) corr[i] *= multipliers[i];
}

void stitch_instance_subgraph(TimingGraph& g, const ModuleInstance& inst,
                              const InstanceRemapper& remap,
                              std::span<const double> sigma_mult,
                              InstanceStitch& out) {
  const TimingGraph& mg = inst.model->graph();
  out.vertex_map.assign(mg.num_vertex_slots(), timing::kNoVertex);
  for (VertexId v = 0; v < mg.num_vertex_slots(); ++v) {
    if (!mg.vertex_alive(v)) continue;
    out.vertex_map[v] = g.add_vertex(inst.name + "/" + mg.vertex(v).name);
  }
  out.edge_map.assign(mg.num_edge_slots(), timing::kNoEdge);
  auto unscaled =
      std::make_shared<timing::FormBank>(mg.num_edge_slots(), g.dim());
  for (EdgeId e = 0; e < mg.num_edge_slots(); ++e) {
    if (!mg.edge_alive(e)) continue;
    const timing::TimingEdge& te = mg.edge(e);
    CanonicalForm d = remap(te.delay);
    unscaled->store(e, d);
    apply_sigma_scale(sigma_mult, d);
    out.edge_map[e] = g.add_edge(out.vertex_map[te.from],
                                 out.vertex_map[te.to], std::move(d));
  }
  out.unscaled = std::move(unscaled);
}

VertexId StitchedDesign::input_vertex(const HierDesign& design,
                                      const PortRef& r) const {
  const TimingGraph& mg = design.instances()[r.instance].model->graph();
  return instances[r.instance].vertex_map[mg.inputs()[r.port]];
}

VertexId StitchedDesign::output_vertex(const HierDesign& design,
                                       const PortRef& r) const {
  const TimingGraph& mg = design.instances()[r.instance].model->graph();
  return instances[r.instance].vertex_map[mg.outputs()[r.port]];
}

StitchedDesign stitch_design(const HierDesign& design,
                             const HierOptions& opts) {
  design.validate();

  StitchedDesign out;
  out.grid = build_design_grid(design);
  const auto& instances = design.instances();
  const size_t num_params =
      instances.front().model->variation().space->num_params();

  // Design coefficient space.
  std::vector<size_t> private_slot(instances.size(), 0);
  std::vector<size_t> private_components(instances.size(), 0);
  if (opts.mode == CorrelationMode::kReplacement) {
    out.design_space = build_design_space(design, out.grid, opts.pca);
    out.total_dim = out.design_space->dim();
  } else {
    // Shared globals followed by per-instance private spatial blocks.
    out.total_dim = num_params;
    for (size_t t = 0; t < instances.size(); ++t) {
      private_slot[t] = out.total_dim;
      private_components[t] =
          instances[t].model->variation().space->num_components();
      out.total_dim += num_params * private_components[t];
    }
  }
  const std::vector<double> mult = sigma_multipliers(
      opts, out.total_dim, num_params, out.design_space.get(), private_slot,
      private_components);

  TimingGraph g = out.design_space ? TimingGraph(out.design_space)
                                   : TimingGraph(out.total_dim);

  // Instance subgraphs with remapped coefficients.
  out.instances.resize(instances.size());
  for (size_t t = 0; t < instances.size(); ++t) {
    const ModuleInstance& inst = instances[t];
    const variation::VariationSpace& mspace = *inst.model->variation().space;
    const InstanceRemapper remap =
        opts.mode == CorrelationMode::kReplacement
            ? InstanceRemapper::replacement(mspace, *out.design_space,
                                            out.grid.instance_grids[t])
            : InstanceRemapper::global_only(mspace, out.total_dim, num_params,
                                            private_slot[t]);

    InstanceStitch& st = out.instances[t];
    st.r = remap.r();
    st.private_slot = private_slot[t];
    stitch_instance_subgraph(g, inst, remap, mult, st);
  }

  // Top-level connections.
  for (const Connection& c : design.connections())
    out.connection_edges.push_back(
        g.add_edge(out.output_vertex(design, c.from_output),
                   out.input_vertex(design, c.to_input),
                   connection_delay(design, opts, c, out.total_dim)));

  // Design ports: dedicated port vertices wired with zero-delay edges.
  for (const PrimaryInput& pi : design.primary_inputs()) {
    const VertexId v = g.add_vertex(pi.name, /*is_input=*/true);
    out.pi_vertices.push_back(v);
    std::vector<EdgeId> edges;
    for (const PortRef& r : pi.sinks)
      edges.push_back(g.add_edge(v, out.input_vertex(design, r),
                                 CanonicalForm(out.total_dim)));
    out.pi_edges.push_back(std::move(edges));
  }
  for (const PrimaryOutput& po : design.primary_outputs()) {
    const VertexId v = g.add_vertex(po.name, false, /*is_output=*/true);
    out.po_vertices.push_back(v);
    out.po_edges.push_back(g.add_edge(out.output_vertex(design, po.source), v,
                                      CanonicalForm(out.total_dim)));
  }

  out.graph = std::move(g);
  return out;
}

}  // namespace hssta::hier
