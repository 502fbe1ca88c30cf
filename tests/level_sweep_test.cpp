// Differential fuzz harness for the propagation and criticality engines:
// across ~50 random DAG shapes (varying width / depth / fanin, seeded via
// stats::Rng) plus a few-input wide DAG — fewer inputs than worker
// threads, so the per-input fan-out leaves threads idle —
//  * the flat FormBank sweeps must be BIT-identical to the legacy
//    per-vertex engine (timing::legacy_propagate_*, oracles.hpp);
//  * the batched criticality gather pass must be BIT-identical to the
//    per-(i, j) scalar scatter pass (scatter_max_criticality, oracles.hpp)
//    it replaces in production; any rounding difference between the two is
//    a bug, not noise;
//  * criticality, all-pairs IO delays and their max diagnostics must be
//    BIT-identical at 1 / 2 / 4 threads.

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <span>
#include <vector>

#include "fixtures.hpp"
#include "hssta/core/criticality.hpp"
#include "hssta/core/io_delays.hpp"
#include "hssta/exec/executor.hpp"
#include "hssta/netlist/generate.hpp"
#include "hssta/timing/builder.hpp"
#include "hssta/timing/propagate.hpp"
#include "hssta/timing/sta.hpp"
#include "oracles.hpp"
#include "synthetic_graphs.hpp"

namespace hssta {
namespace {

using core::CriticalityOptions;
using core::CriticalityResult;
using core::DelayMatrix;
using timing::CanonicalForm;
using timing::EdgeId;
using timing::MaxDiagnostics;
using timing::PropagationResult;
using timing::TimingGraph;
using timing::VertexId;

void expect_same_diag(const MaxDiagnostics& a, const MaxDiagnostics& b) {
  EXPECT_EQ(a.ops, b.ops);
  EXPECT_EQ(a.variance_clamped, b.variance_clamped);
  EXPECT_EQ(a.degenerate_theta, b.degenerate_theta);
}

void expect_same_matrix(const DelayMatrix& a, const DelayMatrix& b) {
  ASSERT_EQ(a.num_inputs(), b.num_inputs());
  ASSERT_EQ(a.num_outputs(), b.num_outputs());
  for (size_t i = 0; i < a.num_inputs(); ++i) {
    for (size_t j = 0; j < a.num_outputs(); ++j) {
      ASSERT_EQ(a.is_valid(i, j), b.is_valid(i, j)) << i << "," << j;
      if (a.is_valid(i, j)) {
        EXPECT_EQ(a.at(i, j), b.at(i, j)) << i << "," << j;
      }
    }
  }
}

TEST(LevelSweepDifferential, BitIdenticalAcrossSchedulesAndThreads) {
  stats::Rng rng(0x5557A5EEDull);
  const size_t kGraphs = 50;
  size_t few_input_graphs = 0;

  for (size_t t = 0; t <= kGraphs; ++t) {
    // The last graph is the few-input wide shape; the rest are random.
    const testing::SyntheticGraphSpec spec =
        t < kGraphs ? testing::random_spec(rng)
                    : testing::few_input_wide_spec();
    const TimingGraph g = testing::make_synthetic_graph(spec, rng);
    SCOPED_TRACE("graph " + std::to_string(t) + ": inputs=" +
                 std::to_string(spec.num_inputs) + " outputs=" +
                 std::to_string(spec.num_outputs) + " width=" +
                 std::to_string(spec.width) + " depth=" +
                 std::to_string(spec.depth) + " fanin=" +
                 std::to_string(spec.max_fanin) + " dim=" +
                 std::to_string(spec.dim));
    if (g.inputs().size() < 4) ++few_input_graphs;

    // Serial references: the scatter oracle, the serial criticality run
    // (for its diagnostics) and the serial IO delays. prune_epsilon 0
    // matches the oracle's.
    const std::vector<double> cm_ref = core::scatter_max_criticality(g);
    CriticalityOptions opts;
    opts.prune_epsilon = 0.0;
    const CriticalityResult crit_ref =
        core::compute_criticality(g, exec::serial(), opts);
    MaxDiagnostics io_diag_ref;
    const DelayMatrix io_ref =
        core::all_pairs_io_delays(g, exec::serial(), &io_diag_ref);

    for (const size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
      SCOPED_TRACE("threads " + std::to_string(threads));
      const std::shared_ptr<exec::Executor> ex = exec::make_executor(threads);

      MaxDiagnostics io_diag;
      expect_same_matrix(io_ref, core::all_pairs_io_delays(g, *ex, &io_diag));
      expect_same_diag(io_diag_ref, io_diag);

      const CriticalityResult crit = core::compute_criticality(g, *ex, opts);
      EXPECT_EQ(crit.max_criticality, cm_ref);
      expect_same_matrix(io_ref, crit.io_delays);
      expect_same_diag(crit_ref.diagnostics, crit.diagnostics);
    }
  }
  // The corpus must actually contain graphs the per-input fan-out cannot
  // spread over all 4 threads.
  EXPECT_GE(few_input_graphs, kGraphs / 4);
}

void expect_same_vs_legacy(const timing::LegacyPropagation& ref,
                           const PropagationResult& flat) {
  EXPECT_EQ(ref.valid, flat.valid);
  ASSERT_EQ(ref.time.size(), flat.time.rows());
  for (size_t v = 0; v < ref.time.size(); ++v) {
    if (ref.valid[v]) {
      EXPECT_TRUE(timing::form_equal(ref.time[v].view(), flat.time.row(v)))
          << "vertex " << v;
    }
  }
  expect_same_diag(ref.diagnostics, flat.diagnostics);
}

/// Forward and backward flat sweeps against the legacy engine on `g`.
void expect_sweeps_match_legacy(const TimingGraph& g) {
  expect_same_vs_legacy(timing::legacy_propagate_arrivals(g),
                        timing::propagate_arrivals(g));
  PropagationResult req;
  timing::propagate_required_into(g, {}, req);
  expect_same_vs_legacy(timing::legacy_propagate_required(g, {}), req);
}

// The flat bank engine against the retired per-vertex engine (kept verbatim
// in oracles.hpp as timing::legacy_propagate_*): across the same 50-DAG
// corpus, forward and backward sweeps must be BIT-identical, and the flat
// tightness split (the criticality kernel) must match the legacy span-based
// split at every multi-fanin vertex. This pins the SoA kernels against the
// original arithmetic, not against themselves.
TEST(LevelSweepDifferential, FlatBankMatchesLegacyPerVertexEngine) {
  stats::Rng rng(0xF1A7BA22ull);
  const size_t kGraphs = 50;

  for (size_t t = 0; t < kGraphs; ++t) {
    const testing::SyntheticGraphSpec spec = testing::random_spec(rng);
    const TimingGraph g = testing::make_synthetic_graph(spec, rng);
    SCOPED_TRACE("graph " + std::to_string(t) + ": width=" +
                 std::to_string(spec.width) + " depth=" +
                 std::to_string(spec.depth) + " dim=" +
                 std::to_string(spec.dim));
    expect_sweeps_match_legacy(g);

    // Criticality kernel: the bank-based tightness split against the
    // legacy allocating split on identical candidate sets.
    const timing::LegacyPropagation arr_ref =
        timing::legacy_propagate_arrivals(g);
    const PropagationResult arr = timing::propagate_arrivals(g);
    MaxDiagnostics diag_legacy, diag_flat;
    timing::FormBank cand, scratch;
    std::vector<double> tp_flat;
    for (VertexId v = 0; v < g.num_vertex_slots(); ++v) {
      if (!g.vertex_alive(v)) continue;
      const auto& fanin = g.vertex(v).fanin;
      if (fanin.size() < 2) continue;
      if (cand.rows() < fanin.size() || cand.dim() != g.dim())
        cand.reset(fanin.size(), g.dim());
      std::vector<CanonicalForm> legacy_cands;
      size_t n = 0;
      for (EdgeId e : fanin) {
        const timing::TimingEdge& te = g.edge(e);
        if (!arr_ref.valid[te.from]) continue;
        CanonicalForm c = arr_ref.time[te.from];
        c += te.delay;
        legacy_cands.push_back(std::move(c));
        timing::add_into(cand.row(n), arr.time.row(te.from), te.delay.view());
        ++n;
      }
      if (n < 2) continue;
      const std::vector<double> tp_legacy = timing::tightness_split(
          std::span<const CanonicalForm>(legacy_cands), &diag_legacy);
      timing::tightness_split_into(cand, n, tp_flat, scratch, &diag_flat);
      ASSERT_EQ(tp_legacy.size(), tp_flat.size());
      for (size_t k = 0; k < n; ++k)
        EXPECT_EQ(tp_legacy[k], tp_flat[k]) << "vertex " << v << " pin " << k;
    }
    expect_same_diag(diag_legacy, diag_flat);
  }
}

// Size-gated large-design smoke: flat vs legacy forward and backward sweeps
// on the synthetic c7552 module and on a generated stacked-DAG netlist
// (default ~20k gates; HSSTA_FLAT_SMOKE_GATES scales it up, e.g. the CI
// release job runs 120k) through the synthetic-delay graph builder.
TEST(LevelSweepDifferential, LargeGeneratedDesignSmoke) {
  {
    SCOPED_TRACE("c7552");
    expect_sweeps_match_legacy(
        flow::Module::from_iscas("c7552", flow::Config()).graph());
  }

  size_t gates = 20000;
  if (const char* env = std::getenv("HSSTA_FLAT_SMOKE_GATES"))
    if (const size_t n = std::strtoull(env, nullptr, 10)) gates = n;

  netlist::StackedDagSpec spec;
  spec.tile.num_inputs = 64;
  spec.tile.num_outputs = 64;
  spec.tile.num_gates = 2000;
  spec.tile.num_pins = 3600;
  spec.tile.depth = 20;
  spec.num_tiles = std::max<size_t>(1, gates / spec.tile.num_gates);
  spec.seed = 1;
  const netlist::Netlist nl =
      netlist::make_stacked_dag(spec, testing::default_lib());
  const timing::BuiltGraph built =
      timing::synthetic_delay_graph(nl, /*dim=*/6, /*seed=*/42);
  SCOPED_TRACE("stacked DAG, " + std::to_string(gates) + " gates");
  expect_sweeps_match_legacy(built.graph);
}

TEST(LevelSweepDifferential, CriticalityDiagnosticsMatchAcrossSchedules) {
  stats::Rng rng(99);
  const testing::SyntheticGraphSpec mixed{3, 4, 24, 5, 3, 4};
  for (const testing::SyntheticGraphSpec& spec :
       {mixed, testing::few_input_wide_spec()}) {
    const TimingGraph g = testing::make_synthetic_graph(spec, rng);
    const CriticalityResult serial = core::compute_criticality(g);
    for (const size_t threads : {size_t{2}, size_t{4}}) {
      const std::shared_ptr<exec::Executor> ex = exec::make_executor(threads);
      const CriticalityResult crit = core::compute_criticality(g, *ex);
      EXPECT_EQ(serial.max_criticality, crit.max_criticality);
      expect_same_diag(serial.diagnostics, crit.diagnostics);
    }
  }
}

TEST(LevelSweepDifferential, ScalarRequiredTimesAreConsistent) {
  // With deadline = the longest-path delay, every reached vertex has
  // non-negative scalar slack and some input-to-output chain sits at 0.
  stats::Rng rng(5);
  testing::SyntheticGraphSpec spec;
  spec.width = 12;
  spec.depth = 6;
  const TimingGraph g = testing::make_synthetic_graph(spec, rng);
  const std::vector<double> delays = timing::corner_edge_delays(g, 0.0);
  const timing::ScalarArrivals arr = timing::longest_path(g, delays);
  const double deadline = arr.max_over_outputs(g);
  const timing::ScalarArrivals req =
      timing::required_times(g, delays, deadline);
  double min_slack = 1e30;
  for (VertexId v = 0; v < g.num_vertex_slots(); ++v) {
    if (!arr.valid[v] || !req.valid[v]) continue;
    const double slack = req.time[v] - arr.time[v];
    EXPECT_GE(slack, -1e-12);
    min_slack = std::min(min_slack, slack);
  }
  EXPECT_NEAR(min_slack, 0.0, 1e-12);
}

}  // namespace
}  // namespace hssta
