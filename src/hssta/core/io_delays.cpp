#include "hssta/core/io_delays.hpp"

#include <cmath>

#include "hssta/util/error.hpp"

namespace hssta::core {

using timing::CanonicalForm;
using timing::TimingGraph;
using timing::VertexId;

DelayMatrix::DelayMatrix(size_t num_inputs, size_t num_outputs, size_t dim)
    : inputs_(num_inputs),
      outputs_(num_outputs),
      delays_(num_inputs * num_outputs, CanonicalForm(dim)),
      valid_(num_inputs * num_outputs, 0) {}

size_t DelayMatrix::idx(size_t i, size_t j) const {
  HSSTA_REQUIRE(i < inputs_ && j < outputs_, "delay matrix index out of range");
  return i * outputs_ + j;
}

bool DelayMatrix::is_valid(size_t i, size_t j) const {
  return valid_[idx(i, j)] != 0;
}

const CanonicalForm& DelayMatrix::at(size_t i, size_t j) const {
  const size_t k = idx(i, j);
  HSSTA_REQUIRE(valid_[k], "access to unconnected IO pair");
  return delays_[k];
}

void DelayMatrix::set(size_t i, size_t j, CanonicalForm delay) {
  const size_t k = idx(i, j);
  delays_[k] = std::move(delay);
  valid_[k] = 1;
}

size_t DelayMatrix::num_valid() const {
  size_t n = 0;
  for (uint8_t v : valid_) n += v;
  return n;
}

double DelayMatrix::max_mean_error(const DelayMatrix& reference,
                                   double floor) const {
  HSSTA_REQUIRE(inputs_ == reference.inputs_ && outputs_ == reference.outputs_,
                "delay matrix shape mismatch");
  double worst = 0.0;
  for (size_t i = 0; i < inputs_; ++i) {
    for (size_t j = 0; j < outputs_; ++j) {
      const size_t k = i * outputs_ + j;
      HSSTA_REQUIRE(valid_[k] == reference.valid_[k],
                    "delay matrix connectivity mismatch");
      if (!valid_[k]) continue;
      const double ref = reference.delays_[k].nominal();
      if (ref < floor) continue;
      worst = std::max(worst,
                       std::abs(delays_[k].nominal() - ref) / ref);
    }
  }
  return worst;
}

namespace {

/// Per-slot scratch: a reusable propagation result plus the slot's share
/// of the diagnostics counters (merged after the region; integer sums, so
/// the merge is independent of the thread partition). Cache-line aligned
/// so neighbouring slots' counters never share a line.
struct alignas(64) IoDelayScratch {
  timing::PropagationResult prop;
  timing::MaxDiagnostics diag;
};

}  // namespace

DelayMatrix all_pairs_io_delays(const TimingGraph& g, exec::Executor& ex,
                                timing::MaxDiagnostics* diag) {
  const auto& ins = g.inputs();
  const auto& outs = g.outputs();
  DelayMatrix m(ins.size(), outs.size(), g.dim());
  std::vector<IoDelayScratch> scratch(ex.concurrency());
  // Each row (i, *) is written by exactly one work item, so the matrix
  // needs no synchronization.
  ex.parallel_for(ins.size(), [&](size_t i, size_t slot) {
    IoDelayScratch& sc = scratch[slot];
    const VertexId sources[] = {ins[i]};
    timing::propagate_arrivals_into(g, sources, sc.prop);
    sc.diag += sc.prop.diagnostics;
    for (size_t j = 0; j < outs.size(); ++j)
      if (sc.prop.valid[outs[j]]) m.set(i, j, sc.prop.time.form(outs[j]));
  });
  if (diag)
    for (const IoDelayScratch& sc : scratch) *diag += sc.diag;
  return m;
}

}  // namespace hssta::core
