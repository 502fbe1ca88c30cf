// Differential suite for criticality's fused forward sweep
// (core::arrival_tightness_into) and the cone- and reach-restricted gather
// built on it. Over the 50 synthetic DAGs of LevelSweepDifferential, its
// few-input wide shape, all 10 ISCAS85 profiles and the sequential s27, at
// 1, 2 and 4 threads:
//  * every input's fused arrivals and valid flags equal
//    timing::propagate_arrivals_into's, bit for bit, and its cone lists
//    exactly the reached vertices in topological order;
//  * its tp equals the two-pass oracle core::fanin_tightness_into
//    (tests/oracles.hpp), bit for bit;
//  * compute_criticality's cm equals the scatter oracle (prune_epsilon 0)
//    and its IO delays equal the arrivals at the outputs;
//  * max-operation counts are the two-pass engine's less the prefix folds
//    it counted twice, and equal across thread counts.
// The per-input sweeps run on one reused ArrivalTightness per worker, and
// the corpus must contain inputs whose cone is a strict subset of the
// graph, so stale rows left by a previous input are exercised.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "fixtures.hpp"
#include "hssta/core/criticality.hpp"
#include "hssta/exec/executor.hpp"
#include "hssta/netlist/iscas.hpp"
#include "hssta/timing/propagate.hpp"
#include "oracles.hpp"
#include "synthetic_graphs.hpp"

namespace hssta {
namespace {

using core::ArrivalTightness;
using timing::EdgeId;
using timing::MaxDiagnostics;
using timing::PropagationResult;
using timing::TimingGraph;
using timing::VertexId;

/// What the corpus exercised: reached vertices by number of reached fanin
/// candidates (the sweep's copy / single-max / split branches), and inputs
/// whose cone misses some live vertex.
struct Coverage {
  size_t fanin_one = 0;
  size_t fanin_two = 0;
  size_t fanin_wide = 0;
  size_t strict_subset_cones = 0;
};

/// One input's two-pass reference.
struct Reference {
  PropagationResult arrivals;
  std::vector<double> tp;
  std::vector<VertexId> cone;
  /// The two-pass engine's count less the prefix folds both its passes ran.
  size_t fused_ops = 0;
};

/// Bitwise equality of n doubles (form_equal takes -0 for 0).
bool same_bits(const double* a, const double* b, size_t n) {
  return std::memcmp(a, b, n * sizeof(double)) == 0;
}

Reference make_reference(const TimingGraph& g, VertexId input,
                         Coverage& cov) {
  Reference ref;
  const VertexId sources[] = {input};
  timing::propagate_arrivals_into(g, sources, ref.arrivals);
  MaxDiagnostics split_diag;
  core::fanin_tightness_into(g, ref.arrivals, &split_diag, ref.tp);
  size_t double_counted = 0;
  for (VertexId v : g.topo_order()) {
    if (!ref.arrivals.valid[v]) continue;
    ref.cone.push_back(v);
    size_t k = 0;
    for (EdgeId e : g.vertex(v).fanin)
      if (ref.arrivals.valid[g.edge(e).from]) ++k;
    if (k == 1) ++cov.fanin_one;
    if (k == 2) ++cov.fanin_two;
    if (k > 2) {
      ++cov.fanin_wide;
      double_counted += k - 1;
    }
  }
  if (ref.cone.size() < g.topo_order().size()) ++cov.strict_subset_cones;
  ref.fused_ops =
      ref.arrivals.diagnostics.ops + split_diag.ops - double_counted;
  return ref;
}

/// Empty when `got` (possibly a reused instance) matches `ref` bit for bit
/// on everything the sweep defines; otherwise the first difference.
std::string compare(const TimingGraph& g, const Reference& ref,
                    const ArrivalTightness& got) {
  if (got.arrivals.valid != ref.arrivals.valid) return "valid flags differ";
  if (got.cone != ref.cone) return "cone differs";
  const size_t stride = g.dim() + 2;
  for (VertexId v : ref.cone)
    if (!same_bits(got.arrivals.time.row(v).nominal,
                   ref.arrivals.time.row(v).nominal, stride))
      return "arrival of vertex " + std::to_string(v) + " differs";
  for (VertexId v : ref.cone)
    for (EdgeId e : g.vertex(v).fanin)
      if (!same_bits(&got.tp[e], &ref.tp[e], 1))
        return "tp of edge " + std::to_string(e) + " differs";
  if (got.arrivals.diagnostics.ops != ref.fused_ops)
    return "max ops " + std::to_string(got.arrivals.diagnostics.ops) +
           ", expected " + std::to_string(ref.fused_ops);
  return "";
}

/// The whole differential check on one graph; adds what it covered to
/// `cov`.
void check_graph(const TimingGraph& g, Coverage& cov) {
  const auto& ins = g.inputs();
  const auto& outs = g.outputs();
  std::vector<Reference> refs;
  refs.reserve(ins.size());
  for (VertexId input : ins) refs.push_back(make_reference(g, input, cov));
  const std::vector<double> cm_ref = core::scatter_max_criticality(g);

  // A fresh instance also holds zero forms and tp 0 off the cone.
  const ArrivalTightness fresh = core::arrival_tightness(g, {&ins[0], 1});
  EXPECT_EQ(compare(g, refs[0], fresh), "");
  EXPECT_EQ(fresh.tp, refs[0].tp);
  const timing::FormBank& fresh_bank = fresh.arrivals.time;
  const timing::FormBank& ref_bank = refs[0].arrivals.time;
  ASSERT_EQ(fresh_bank.size(), ref_bank.size());
  EXPECT_TRUE(same_bits(fresh_bank.data(), ref_bank.data(), ref_bank.size()));

  core::CriticalityOptions opts;
  opts.prune_epsilon = 0.0;
  std::vector<MaxDiagnostics> sweep_diag_serial;
  MaxDiagnostics crit_diag_serial;
  for (const size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    const std::shared_ptr<exec::Executor> ex = exec::make_executor(threads);

    // Fused sweeps, one reused ArrivalTightness per worker slot; each input
    // is compared inside its task (the state is overwritten by the next
    // one) and reported on this thread.
    std::vector<std::string> mismatch(ins.size());
    std::vector<MaxDiagnostics> sweep_diag(ins.size());
    std::vector<ArrivalTightness> per_slot(ex->concurrency());
    ex->parallel_for(ins.size(), [&](size_t i, size_t slot) {
      ArrivalTightness& fused = per_slot[slot];
      const VertexId sources[] = {ins[i]};
      core::arrival_tightness_into(g, sources, fused);
      mismatch[i] = compare(g, refs[i], fused);
      sweep_diag[i] = fused.arrivals.diagnostics;
    });
    for (size_t i = 0; i < ins.size(); ++i)
      EXPECT_EQ(mismatch[i], "") << "input " << i;

    const core::CriticalityResult crit =
        core::compute_criticality(g, *ex, opts);
    EXPECT_EQ(crit.max_criticality, cm_ref);
    size_t expected_ops = 0;
    for (size_t i = 0; i < ins.size(); ++i) {
      expected_ops += refs[i].fused_ops;
      for (size_t j = 0; j < outs.size(); ++j) {
        ASSERT_EQ(crit.io_delays.is_valid(i, j),
                  refs[i].arrivals.valid[outs[j]] != 0);
        if (!crit.io_delays.is_valid(i, j)) continue;
        const timing::CanonicalForm& got = crit.io_delays.at(i, j);
        const timing::ConstFormView want = refs[i].arrivals.view(outs[j]);
        EXPECT_TRUE(timing::form_equal(got.view(), want))
            << "io delay " << i << "," << j;
      }
    }
    EXPECT_EQ(crit.diagnostics.ops, expected_ops);

    if (threads == 1) {
      sweep_diag_serial = sweep_diag;
      crit_diag_serial = crit.diagnostics;
      continue;
    }
    for (size_t i = 0; i < ins.size(); ++i) {
      EXPECT_EQ(sweep_diag[i].ops, sweep_diag_serial[i].ops);
      EXPECT_EQ(sweep_diag[i].variance_clamped,
                sweep_diag_serial[i].variance_clamped);
      EXPECT_EQ(sweep_diag[i].degenerate_theta,
                sweep_diag_serial[i].degenerate_theta);
    }
    EXPECT_EQ(crit.diagnostics.ops, crit_diag_serial.ops);
    EXPECT_EQ(crit.diagnostics.variance_clamped,
              crit_diag_serial.variance_clamped);
    EXPECT_EQ(crit.diagnostics.degenerate_theta,
              crit_diag_serial.degenerate_theta);
  }
}

TEST(FusedSweepDifferential, SyntheticCorpusMatchesTwoPassEngine) {
  // The corpus of LevelSweepDifferential's schedule and thread test: same
  // seed, same draws.
  stats::Rng rng(0x5557A5EEDull);
  const size_t kGraphs = 50;
  Coverage total;
  for (size_t t = 0; t <= kGraphs; ++t) {
    const testing::SyntheticGraphSpec spec =
        t < kGraphs ? testing::random_spec(rng)
                    : testing::few_input_wide_spec();
    const TimingGraph g = testing::make_synthetic_graph(spec, rng);
    SCOPED_TRACE("graph " + std::to_string(t));
    check_graph(g, total);
  }
  EXPECT_GT(total.fanin_one, 0u);
  EXPECT_GT(total.fanin_two, 0u);
  EXPECT_GT(total.fanin_wide, 0u);
  EXPECT_GT(total.strict_subset_cones, 0u);
}

class FusedSweepIscas : public ::testing::TestWithParam<std::string> {};

TEST_P(FusedSweepIscas, MatchesTwoPassEngine) {
  const std::string& name = GetParam();
  const std::string s27 = std::string(HSSTA_TESTDATA_DIR) + "/s27.bench";
  const flow::Module m = name == "s27" ? flow::Module::from_file(s27)
                                       : flow::Module::from_iscas(name);
  Coverage cov;
  check_graph(m.graph(), cov);
  EXPECT_GT(cov.fanin_one + cov.fanin_two + cov.fanin_wide, 0u);
  EXPECT_GT(cov.strict_subset_cones, 0u);
}

std::vector<std::string> profile_names() {
  std::vector<std::string> names;
  for (const netlist::IscasProfile& p : netlist::iscas85_profiles())
    names.push_back(p.name);
  names.push_back("s27");
  return names;
}

INSTANTIATE_TEST_SUITE_P(FusedSweepDifferential, FusedSweepIscas,
                         ::testing::ValuesIn(profile_names()),
                         [](const ::testing::TestParamInfo<std::string>& i) {
                           return i.param;
                         });

}  // namespace
}  // namespace hssta
