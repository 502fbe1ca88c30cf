#include "hssta/mc/hier_mc.hpp"

#include "hssta/timing/builder.hpp"
#include "hssta/util/error.hpp"

namespace hssta::mc {

using hier::HierDesign;
using hier::PortRef;
using timing::EdgeId;
using timing::VertexId;

FlatCircuit flatten_design(const HierDesign& design,
                           const hier::DesignGrid& grid,
                           const FlattenOptions& opts) {
  design.validate();
  const auto& instances = design.instances();
  for (const hier::ModuleInstance& inst : instances)
    HSSTA_REQUIRE(inst.netlist != nullptr && inst.module_placement != nullptr,
                  "flattening needs netlist + placement on instance " +
                      inst.name);

  const variation::VariationSpace& ref_space =
      *instances.front().model->variation().space;
  FlatCircuit fc(
      ref_space.parameters(),
      ref_space.correlation_model().correlation_matrix(grid.geometry),
      ref_space.parameters().load_sigma_rel);

  const size_t num_params = ref_space.num_params();

  // Instance subcircuits from their original netlists.
  std::vector<std::vector<VertexId>> inst_inputs(instances.size());
  std::vector<std::vector<VertexId>> inst_outputs(instances.size());
  for (size_t t = 0; t < instances.size(); ++t) {
    const hier::ModuleInstance& inst = instances[t];
    const timing::BuiltGraph built = timing::build_timing_graph(
        *inst.netlist, *inst.module_placement, inst.model->variation());
    const timing::TimingGraph& g = built.graph;

    std::vector<VertexId> vmap(g.num_vertex_slots(), timing::kNoVertex);
    for (VertexId v = 0; v < g.num_vertex_slots(); ++v) {
      if (!g.vertex_alive(v)) continue;
      vmap[v] = fc.add_vertex(inst.name + "/" + g.vertex(v).name, false,
                              false);
    }
    for (EdgeId e = 0; e < g.num_edge_slots(); ++e) {
      if (!g.edge_alive(e)) continue;
      const timing::TimingEdge& te = g.edge(e);
      const timing::EdgeSite& site = built.sites[e];
      const library::CellType& type = *inst.netlist->gate(site.gate).type;
      std::vector<double> sens(num_params, 0.0);
      for (size_t p = 0; p < num_params; ++p)
        sens[p] = site.nominal *
                  type.sensitivity(ref_space.parameters().at(p).name);
      fc.add_arc(vmap[te.from], vmap[te.to], site.nominal,
                 type.drive_res * site.load,
                 grid.instance_grids[t][site.grid], std::move(sens));
    }
    for (VertexId v : built.input_vertices)
      inst_inputs[t].push_back(vmap[v]);
    for (VertexId v : built.output_vertices)
      inst_outputs[t].push_back(vmap[v]);
  }

  auto in_vertex = [&](const PortRef& r) {
    return inst_inputs[r.instance][r.port];
  };
  auto out_vertex = [&](const PortRef& r) {
    return inst_outputs[r.instance][r.port];
  };

  for (const hier::Connection& c : design.connections()) {
    double nominal = opts.interconnect_delay;
    double load_term = 0.0;
    if (opts.load_aware_boundary) {
      const double drive =
          instances[c.from_output.instance].model->boundary()
              .output_drive_res[c.from_output.port];
      const double cap = instances[c.to_input.instance].model->boundary()
                             .input_cap[c.to_input.port];
      nominal += drive * cap;
      load_term = drive * cap;
    }
    fc.add_constant_arc(out_vertex(c.from_output), in_vertex(c.to_input),
                        nominal, load_term);
  }
  for (const hier::PrimaryInput& pi : design.primary_inputs()) {
    const VertexId v = fc.add_vertex(pi.name, true, false);
    for (const PortRef& r : pi.sinks)
      fc.add_constant_arc(v, in_vertex(r), 0.0, 0.0);
  }
  for (const hier::PrimaryOutput& po : design.primary_outputs()) {
    const VertexId v = fc.add_vertex(po.name, false, true);
    fc.add_constant_arc(out_vertex(po.source), v, 0.0, 0.0);
  }
  return fc;
}

}  // namespace hssta::mc
