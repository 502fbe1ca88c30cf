#include "hssta/hier/design.hpp"

#include <cmath>
#include <unordered_set>

#include "hssta/util/error.hpp"

namespace hssta::hier {

size_t HierDesign::add_instance(ModuleInstance instance) {
  HSSTA_REQUIRE(instance.model != nullptr, "instance needs a timing model");
  HSSTA_REQUIRE(!instance.name.empty(), "instance needs a name");
  instances_.push_back(std::move(instance));
  return instances_.size() - 1;
}

void HierDesign::validate() const {
  HSSTA_REQUIRE(!instances_.empty(), "design has no instances");
  HSSTA_REQUIRE(!inputs_.empty(), "design has no primary inputs");
  HSSTA_REQUIRE(!outputs_.empty(), "design has no primary outputs");

  for (const ModuleInstance& inst : instances_) {
    const placement::Die& mdie = inst.model->die();
    HSSTA_REQUIRE(std::isfinite(inst.origin.x) && std::isfinite(inst.origin.y),
                  "instance origin is not finite: " + inst.name);
    HSSTA_REQUIRE(inst.origin.x >= -1e-9 && inst.origin.y >= -1e-9 &&
                      inst.origin.x + mdie.width <= die_.width + 1e-9 &&
                      inst.origin.y + mdie.height <= die_.height + 1e-9,
                  "instance outside the design die: " + inst.name);
    if (inst.netlist) {
      HSSTA_REQUIRE(inst.module_placement != nullptr,
                    "netlist-backed instance needs its module placement: " +
                        inst.name);
      HSSTA_REQUIRE(
          inst.netlist->primary_inputs().size() ==
                  inst.model->graph().inputs().size() &&
              inst.netlist->primary_outputs().size() ==
                  inst.model->graph().outputs().size(),
          "instance netlist ports do not match its model: " + inst.name);
    }
  }

  auto check_output_ref = [&](const PortRef& r, const char* what) {
    HSSTA_REQUIRE(r.instance < instances_.size(),
                  std::string(what) + ": instance index out of range");
    HSSTA_REQUIRE(
        r.port < instances_[r.instance].model->graph().outputs().size(),
        std::string(what) + ": output port index out of range");
  };
  auto check_input_ref = [&](const PortRef& r, const char* what) {
    HSSTA_REQUIRE(r.instance < instances_.size(),
                  std::string(what) + ": instance index out of range");
    HSSTA_REQUIRE(
        r.port < instances_[r.instance].model->graph().inputs().size(),
        std::string(what) + ": input port index out of range");
  };

  // Every instance input has at most one driver (connection or design PI).
  // det-ok: duplicate-driver membership test only, never iterated.
  std::unordered_set<uint64_t> driven;
  auto key = [](const PortRef& r) {
    return (static_cast<uint64_t>(r.instance) << 32) | r.port;
  };
  auto claim_input = [&](const PortRef& r, const char* what) {
    check_input_ref(r, what);
    HSSTA_REQUIRE(driven.insert(key(r)).second,
                  std::string(what) + ": instance input driven twice");
  };

  for (const Connection& c : connections_) {
    check_output_ref(c.from_output, "connection");
    claim_input(c.to_input, "connection");
  }
  for (const PrimaryInput& pi : inputs_) {
    HSSTA_REQUIRE(!pi.sinks.empty(),
                  "primary input without sinks: " + pi.name);
    for (const PortRef& r : pi.sinks) claim_input(r, "primary input");
  }
  for (const PrimaryOutput& po : outputs_)
    check_output_ref(po.source, "primary output");
}

}  // namespace hssta::hier
