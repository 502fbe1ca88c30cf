// Shared test fixtures: a placed-and-extracted module under test (backed
// by the flow:: facade) and the paper-style 2x2 cross-connected
// hierarchical design built from it.

#pragma once

#include "hssta/flow/flow.hpp"
#include "hssta/hier/design.hpp"

namespace hssta::testing {

inline const library::CellLibrary& default_lib() {
  return *flow::default_library();
}

/// A module with everything the pipelines need, kept alive together. The
/// reference members let suites keep addressing the stages as fields while
/// the flow::Module handle owns them.
struct ModuleUnderTest {
  flow::Module module;
  const netlist::Netlist& netlist;
  const placement::Placement& placement;
  const variation::ModuleVariation& variation;
  const timing::BuiltGraph& built;
  const model::Extraction& extraction;

  explicit ModuleUnderTest(const netlist::RandomDagSpec& spec,
                           double delta = 0.05)
      : module(flow::Module::from_random_dag(spec, flow::Config())),
        netlist(module.netlist()),
        placement(module.placement()),
        variation(module.variation()),
        built(module.built()),
        extraction(
            module.extract_model(model::ExtractOptions{delta, true})) {}

  [[nodiscard]] const model::TimingModel& model() const {
    return extraction.model;
  }
};

/// Default small module spec used across suites.
inline netlist::RandomDagSpec small_module_spec(uint64_t seed = 77) {
  netlist::RandomDagSpec s;
  s.name = "mod";
  s.num_inputs = 8;
  s.num_outputs = 8;
  s.num_gates = 150;
  s.num_pins = 270;
  s.depth = 12;
  s.seed = seed;
  return s;
}

/// The paper's Fig. 7 topology at test scale: four abutted instances of one
/// module in two columns, outputs of the first column cross-connected to
/// the inputs of the second column.
inline hier::HierDesign make_quad_design(const ModuleUnderTest& m) {
  using hier::PortRef;
  const placement::Die mdie = m.model().die();
  hier::HierDesign d("quad",
                     placement::Die{2 * mdie.width, 2 * mdie.height});
  const size_t a = d.add_instance(
      {"a", &m.model(), {0, 0}, &m.netlist, &m.placement});
  const size_t b = d.add_instance(
      {"b", &m.model(), {0, mdie.height}, &m.netlist, &m.placement});
  const size_t c = d.add_instance(
      {"c", &m.model(), {mdie.width, 0}, &m.netlist, &m.placement});
  const size_t e = d.add_instance(
      {"e", &m.model(), {mdie.width, mdie.height}, &m.netlist, &m.placement});

  const size_t ni = m.model().graph().inputs().size();
  const size_t no = m.model().graph().outputs().size();
  for (size_t k = 0; k < ni; ++k) {
    d.add_connection({PortRef{k % 2 ? b : a, k % no}, PortRef{c, k}});
    d.add_connection({PortRef{k % 2 ? a : b, (k + 1) % no}, PortRef{e, k}});
  }
  for (size_t k = 0; k < ni; ++k) {
    d.add_primary_input({"pa" + std::to_string(k), {PortRef{a, k}}});
    d.add_primary_input({"pb" + std::to_string(k), {PortRef{b, k}}});
  }
  for (size_t k = 0; k < no; ++k) {
    d.add_primary_output({"qc" + std::to_string(k), PortRef{c, k}});
    d.add_primary_output({"qe" + std::to_string(k), PortRef{e, k}});
  }
  return d;
}

}  // namespace hssta::testing
