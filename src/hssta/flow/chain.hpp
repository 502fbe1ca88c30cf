/// \file chain.hpp
/// Assembly of the "chain" design shared by the CLI front end
/// (hier/eco/sweep) and the serve layer's `load_design` verb: modules
/// placed left-to-right in abutment, every consecutive pair fully
/// connected, and the *base* topology's unwired boundary ports exposed as
/// design primary ports. Keeping the assembly in the library means a
/// served analysis is built by exactly the code a one-shot CLI run uses —
/// the serve layer's bit-identity contract starts here.

#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "hssta/flow/config.hpp"
#include "hssta/flow/design.hpp"

namespace hssta::flow {

/// Serialized-model input (vs a netlist to extract). Decided by content
/// (detect.hpp), falling back to the .hstm extension for unreadable files.
[[nodiscard]] bool is_model_file(const std::string& path);

/// Load an ECO variant model: a .hstm file directly, or a netlist (.bench
/// or BLIF, detected by content) whose model extracts through the module
/// pipeline (consulting the persistent model cache first when one is
/// configured).
[[nodiscard]] std::shared_ptr<const model::TimingModel> load_variant_model(
    const std::string& file, const Config& cfg);

/// Overrides applied while assembling a chained design — the from-scratch
/// side of an ECO: swapped-in models, moved instances, rewired chain
/// connections (by chain-connection index).
struct ChainOverrides {
  std::map<size_t, std::shared_ptr<const model::TimingModel>> models;
  std::map<size_t, placement::Point> origins;
  std::map<size_t, hier::Connection> rewires;
};

/// Load the modules, place them left-to-right in abutment and chain every
/// consecutive pair (output k of stage i feeds input k of stage i+1,
/// wrapping over the narrower port list). Boundary ports that the *base*
/// chain leaves unwired become design primary ports — computed from the
/// un-rewired connection list, so an ECO'd chain keeps the base port set
/// (exactly like the incremental engine does). Each distinct .hstm path
/// parses once per call; a repeated path's later instances (named u<index>
/// like every .hstm instance) get their own copies of that parse.
[[nodiscard]] Design build_chain_design(const std::string& name,
                                        const std::vector<std::string>& files,
                                        const Config& cfg,
                                        const ChainOverrides& overrides = {});

/// The "star" counterpart (the campaign layer's second base topology, the
/// SoC shape of leaf IPs feeding one combiner): instances placed on a
/// 4-wide grid by their own die size, the last instance the combiner,
/// every combiner input k driven round-robin by leaf `k % (N-1)`'s output
/// `k % no`, and the unwired boundary ports exposed as primary ports.
/// Needs at least two files; .hstm paths parse once per call, as in
/// build_chain_design. A changed star is built from its changed file list.
[[nodiscard]] Design build_star_design(const std::string& name,
                                       const std::vector<std::string>& files,
                                       const Config& cfg);

}  // namespace hssta::flow
