/// \file design.hpp
/// Hierarchical design description (paper Section V): pre-characterized
/// timing models placed at origins on the top-level die, stitched by
/// port-to-port connections. Instances may optionally carry their source
/// netlist and module-local placement so the flat Monte Carlo reference can
/// rebuild the fully flattened circuit.

#pragma once

#include <string>
#include <vector>

#include "hssta/model/timing_model.hpp"
#include "hssta/netlist/netlist.hpp"
#include "hssta/placement/placement.hpp"

namespace hssta::hier {

/// One placed module instance. The model (and optional netlist/placement)
/// are referenced, not owned; the caller keeps them alive.
struct ModuleInstance {
  std::string name;
  const model::TimingModel* model = nullptr;
  placement::Point origin;  ///< module (0,0) lands here on the design die
  /// Optional flattening data for the Monte Carlo reference.
  const netlist::Netlist* netlist = nullptr;
  const placement::Placement* module_placement = nullptr;
};

/// Reference to one port of one instance (index into the model's
/// input_names()/output_names() order).
struct PortRef {
  size_t instance = 0;
  size_t port = 0;

  bool operator==(const PortRef&) const = default;
};

/// Top-level net from an instance output to an instance input.
struct Connection {
  PortRef from_output;
  PortRef to_input;
};

/// Design primary input fanning out to instance inputs.
struct PrimaryInput {
  std::string name;
  std::vector<PortRef> sinks;
};

/// Design primary output fed by one instance output.
struct PrimaryOutput {
  std::string name;
  PortRef source;
};

class HierDesign {
 public:
  explicit HierDesign(std::string name, placement::Die die)
      : name_(std::move(name)), die_(die) {}

  /// Add an instance; returns its index.
  size_t add_instance(ModuleInstance instance);
  void add_connection(Connection c) { connections_.push_back(c); }
  void add_primary_input(PrimaryInput pi) { inputs_.push_back(std::move(pi)); }
  void add_primary_output(PrimaryOutput po) {
    outputs_.push_back(std::move(po));
  }

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const placement::Die& die() const { return die_; }
  [[nodiscard]] const std::vector<ModuleInstance>& instances() const {
    return instances_;
  }
  [[nodiscard]] const std::vector<Connection>& connections() const {
    return connections_;
  }
  [[nodiscard]] const std::vector<PrimaryInput>& primary_inputs() const {
    return inputs_;
  }
  [[nodiscard]] const std::vector<PrimaryOutput>& primary_outputs() const {
    return outputs_;
  }

  /// Structural checks: port references in range, instances at finite
  /// origins on the die, every instance input driven at most once, ports
  /// exist, at least one primary input and output. Throws hssta::Error on
  /// violation.
  void validate() const;

 private:
  std::string name_;
  placement::Die die_;
  std::vector<ModuleInstance> instances_;
  std::vector<Connection> connections_;
  std::vector<PrimaryInput> inputs_;
  std::vector<PrimaryOutput> outputs_;
};

}  // namespace hssta::hier
