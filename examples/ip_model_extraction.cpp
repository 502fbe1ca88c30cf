// IP-vendor flow: characterize a block once, ship a compact statistical
// timing model instead of the netlist (paper Sections III-IV).
//
// The example extracts the gray-box model of a c432-sized block through
// the flow:: facade, verifies that the model reproduces the block's
// input-output delays, writes the model to a .hstm file (the hand-off
// artifact) and reloads it bit-exactly.

#include <cstdio>

#include "hssta/core/io_delays.hpp"
#include "hssta/flow/flow.hpp"

int main() {
  using namespace hssta;

  // The block to protect: a c432-sized circuit (use
  // flow::Module::from_file to load a real .bench or BLIF netlist
  // instead).
  // The default flow::Config already uses the paper's threshold
  // delta = 0.05.
  const flow::Module m = flow::Module::from_iscas("c432", flow::Config());
  const model::Extraction& ex = m.extract_model();
  const model::ExtractionStats& st = ex.stats;
  std::printf(
      "extraction: %zu -> %zu edges (%.0f%%), %zu -> %zu vertices (%.0f%%)\n"
      "pruned %zu non-critical edges, %zu serial + %zu parallel merges, "
      "%.3f s\n\n",
      st.original_edges, st.model_edges, 100.0 * st.edge_ratio(),
      st.original_vertices, st.model_vertices, 100.0 * st.vertex_ratio(),
      st.edges_pruned, st.reduce.serial_merges, st.reduce.parallel_merges,
      st.seconds);

  // The model's contract: same IO delay matrix as the original block.
  const core::DelayMatrix original = core::all_pairs_io_delays(m.graph());
  const core::DelayMatrix modeled = ex.model.io_delays();
  double worst = 0.0;
  for (size_t i = 0; i < original.num_inputs(); ++i)
    for (size_t j = 0; j < original.num_outputs(); ++j) {
      if (!original.is_valid(i, j)) continue;
      const double ref = original.at(i, j).nominal();
      if (ref > 1e-9)
        worst = std::max(worst,
                         std::abs(modeled.at(i, j).nominal() - ref) / ref);
    }
  std::printf("worst IO mean-delay deviation vs original: %.2f%%\n",
              worst * 100);

  // A few sample entries of the shipped delay matrix.
  std::printf("\nmodel IO delays (first 3x3, mean / sigma in ns):\n");
  for (size_t i = 0; i < std::min<size_t>(3, modeled.num_inputs()); ++i) {
    for (size_t j = 0; j < std::min<size_t>(3, modeled.num_outputs()); ++j) {
      if (modeled.is_valid(i, j))
        std::printf("  [%zu,%zu] %.4f / %.4f", i, j,
                    modeled.at(i, j).nominal(), modeled.at(i, j).sigma());
      else
        std::printf("  [%zu,%zu]   --  ", i, j);
    }
    std::printf("\n");
  }

  // Hand-off: write and reload the .hstm artifact. A reloaded model drops
  // straight into flow::Design::add_instance_from_model_file.
  const std::string path = "c432.hstm";
  ex.model.save_file(path);
  const model::TimingModel loaded = model::TimingModel::load_file(path);
  const core::DelayMatrix reloaded = loaded.io_delays();
  double roundtrip = 0.0;
  for (size_t i = 0; i < modeled.num_inputs(); ++i)
    for (size_t j = 0; j < modeled.num_outputs(); ++j)
      if (modeled.is_valid(i, j))
        roundtrip = std::max(roundtrip,
                             std::abs(reloaded.at(i, j).nominal() -
                                      modeled.at(i, j).nominal()));
  std::printf(
      "\nmodel written to %s (%zu edges over %zu variables) and reloaded: "
      "%s\n",
      path.c_str(), loaded.graph().num_live_edges(), loaded.graph().dim(),
      roundtrip == 0.0 ? "bit-exact" : "MISMATCH");
  return 0;
}
