/// \file timing_model.hpp
/// The gray-box statistical timing model (paper Section III): a reduced
/// timing graph with the same ports and (statistically) the same
/// input-output delay matrix as the original module, plus everything the
/// design level needs to re-embed it — the module's grid partition and
/// correlation configuration (for the variable replacement of Section V)
/// and boundary electrical data (the paper's future-work extension: input
/// pin capacitance and output drive resistance, letting the design level
/// adjust boundary delays for the actually connected load).
///
/// Models serialize to a line-based text format (.hstm). Doubles are
/// written as hex-floats so a round-trip is bit-exact, which matters
/// because the loader re-derives the PCA from the stored grid geometry and
/// must reproduce the exact space the stored coefficients refer to.
///
/// Sequential modules extend the model with register records (which input
/// port is a flop launch, which output port its capture) and folded
/// FF-to-FF internal constraints — the statistical max of the
/// register-to-register path delays of each clock-bounded segment, so a
/// design-level user can check internal cycle limits without the module's
/// gates. Files with that data carry version "hstm 2" and append optional
/// `registers`/`constraints` blocks; "hstm 1" files (and models without
/// sequential data, which still save as version 1) load unchanged.
///
/// A model keeps the text save() writes, computed on first use by
/// saved_text() and shared by every copy, so saved sessions and content
/// fingerprints (incr/serialize.cpp) never run the hex-float writer twice
/// for one parsed model.

#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "hssta/core/io_delays.hpp"
#include "hssta/netlist/netlist.hpp"
#include "hssta/timing/graph.hpp"
#include "hssta/variation/space.hpp"

namespace hssta::model {

/// Boundary electrical data for load-aware stitching (extension).
struct BoundaryData {
  std::vector<double> input_cap;          ///< fF, per input port
  std::vector<double> output_drive_res;   ///< ns/fF, per output port
};

/// Derive boundary data from the module netlist: an input port presents the
/// sum of the pin caps it drives; an output port drives with its source
/// gate's drive resistance (0 for an input feeding through). For
/// sequential netlists the ports follow the timing-graph order (primary
/// inputs, then register launches; sinks in vertex-creation order);
/// combinational netlists keep the original PI/PO declaration order.
[[nodiscard]] BoundaryData compute_boundary(const netlist::Netlist& nl);

/// Register record of a sequential model, referencing ports by name: the
/// flop launches at input port `launch` (its data output net) and captures
/// at output port `capture` (its data input net). `clock` is empty for
/// unclocked styles; `init` uses the BLIF encoding (0, 1, 2 = don't care,
/// 3 = unknown).
struct ModelRegister {
  std::string name;
  std::string launch;
  std::string capture;
  std::string clock;
  int init = 3;
};

/// One folded FF-to-FF internal constraint: the statistical max of the
/// register-launch-to-register-capture path delays of one clock-bounded
/// segment. The label identifies the segment ("seg3").
struct SequentialConstraint {
  std::string label;
  timing::CanonicalForm delay;
};

class TimingModel {
 public:
  TimingModel(std::string name, timing::TimingGraph graph,
              variation::ModuleVariation variation, BoundaryData boundary);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const timing::TimingGraph& graph() const { return graph_; }
  /// Mutable access drops the saved text (the model gets a fresh record).
  /// Do not mutate through the returned reference after a later copy,
  /// saved_text() or fingerprint of this model: the copy or the text
  /// would not see the change.
  [[nodiscard]] timing::TimingGraph& graph() {
    saved_ = std::make_shared<Saved>();
    return graph_;
  }
  [[nodiscard]] const variation::ModuleVariation& variation() const {
    return variation_;
  }
  [[nodiscard]] const BoundaryData& boundary() const { return boundary_; }

  /// Port name lists in port order.
  [[nodiscard]] std::vector<std::string> input_names() const;
  [[nodiscard]] std::vector<std::string> output_names() const;

  /// Die outline of the module (from the grid partition).
  [[nodiscard]] const placement::Die& die() const {
    return variation_.partition.die();
  }

  /// The model's IO delay matrix (its accuracy contract).
  [[nodiscard]] core::DelayMatrix io_delays() const;

  /// --- sequential data ----------------------------------------------------

  /// Attach register records and folded FF-to-FF constraints. Launch and
  /// capture names must resolve to input/output ports; constraint delays
  /// must match the model's variation dimension. Throws on violation.
  void set_sequential(std::vector<ModelRegister> registers,
                      std::vector<SequentialConstraint> constraints);

  [[nodiscard]] bool is_sequential() const { return !registers_.empty(); }
  [[nodiscard]] const std::vector<ModelRegister>& registers() const {
    return registers_;
  }
  [[nodiscard]] const std::vector<SequentialConstraint>& constraints() const {
    return constraints_;
  }

  /// --- serialization ------------------------------------------------------

  /// Stream the .hstm text (it does not fill or read the saved text).
  void save(std::ostream& os) const;
  void save_file(const std::string& path) const;
  [[nodiscard]] static TimingModel load(std::istream& is);
  [[nodiscard]] static TimingModel load_file(const std::string& path);

  /// The bytes save() writes, computed by save() on the first call and
  /// shared by every copy of this model, so all copies return the same
  /// string object. Thread-safe: concurrent first calls compute it once.
  /// set_sequential() and the non-const graph() give the model a fresh,
  /// empty record. A moved-from model has no text (it cannot be saved
  /// either) until it is assigned to.
  [[nodiscard]] const std::string& saved_text() const;
  /// util::Fnv1a().str(saved_text()).value(), computed with the text.
  [[nodiscard]] uint64_t saved_fingerprint() const;

 private:
  /// The saved text of one model content and its fingerprint, filled on
  /// first use.
  struct Saved {
    std::once_flag once;
    std::string text;
    uint64_t fingerprint = 0;
  };

  std::string name_;
  timing::TimingGraph graph_;
  variation::ModuleVariation variation_;
  BoundaryData boundary_;
  std::vector<ModelRegister> registers_;
  std::vector<SequentialConstraint> constraints_;
  /// The record of the current content: copies share it, mutators replace
  /// it, a moved-from model holds none until it is assigned or mutated.
  std::shared_ptr<Saved> saved_ = std::make_shared<Saved>();

  [[nodiscard]] const Saved& saved() const;
};

}  // namespace hssta::model
