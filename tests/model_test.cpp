// Tests for the gray-box model extraction: merge passes (exactness of the
// preserved IO delays), dangling cleanup, pruning with connectivity repair,
// end-to-end extraction quality, and model serialization round-trips.

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <sstream>
#include <utility>
#include <vector>

#include "hssta/core/io_delays.hpp"
#include "hssta/library/cell_library.hpp"
#include "hssta/model/extract.hpp"
#include "hssta/model/reduce.hpp"
#include "hssta/model/timing_model.hpp"
#include "hssta/netlist/generate.hpp"
#include "hssta/placement/placement.hpp"
#include "hssta/timing/builder.hpp"
#include "hssta/util/error.hpp"

namespace hssta::model {
namespace {

using core::DelayMatrix;
using timing::CanonicalForm;
using timing::EdgeId;
using timing::TimingGraph;
using timing::VertexId;

CanonicalForm form(double nominal, std::vector<double> corr, double random) {
  CanonicalForm f(corr.size());
  f.set_nominal(nominal);
  std::copy(corr.begin(), corr.end(), f.corr().begin());
  f.set_random(random);
  return f;
}

void expect_matrices_match(const DelayMatrix& a, const DelayMatrix& b,
                           double tol) {
  ASSERT_EQ(a.num_inputs(), b.num_inputs());
  ASSERT_EQ(a.num_outputs(), b.num_outputs());
  for (size_t i = 0; i < a.num_inputs(); ++i)
    for (size_t j = 0; j < a.num_outputs(); ++j) {
      ASSERT_EQ(a.is_valid(i, j), b.is_valid(i, j)) << i << "," << j;
      if (!a.is_valid(i, j)) continue;
      EXPECT_NEAR(a.at(i, j).nominal(), b.at(i, j).nominal(),
                  tol * std::max(1.0, std::abs(b.at(i, j).nominal())))
          << i << "," << j;
      EXPECT_NEAR(a.at(i, j).sigma(), b.at(i, j).sigma(),
                  tol * std::max(0.01, b.at(i, j).sigma()))
          << i << "," << j;
    }
}

TEST(Reduce, SerialMergeCollapsesChainExactly) {
  TimingGraph g(2);
  const VertexId a = g.add_vertex("a", true);
  const VertexId m1 = g.add_vertex("m1");
  const VertexId m2 = g.add_vertex("m2");
  const VertexId z = g.add_vertex("z", false, true);
  g.add_edge(a, m1, form(1.0, {0.1, 0.0}, 0.3));
  g.add_edge(m1, m2, form(2.0, {0.2, 0.1}, 0.4));
  g.add_edge(m2, z, form(3.0, {0.0, 0.2}, 0.0));
  const DelayMatrix before = core::all_pairs_io_delays(g);

  const ReduceStats stats = reduce_graph(g);
  EXPECT_EQ(stats.serial_merges, 2u);
  EXPECT_EQ(g.num_live_vertices(), 2u);
  EXPECT_EQ(g.num_live_edges(), 1u);
  const DelayMatrix after = core::all_pairs_io_delays(g);
  expect_matrices_match(after, before, 1e-12);
  g.validate();
}

TEST(Reduce, SerialMergeFansOutThroughSingleFanin) {
  // Paper Fig. 1a: vk with one fanin and two fanouts disappears.
  TimingGraph g(1);
  const VertexId a = g.add_vertex("a", true);
  const VertexId k = g.add_vertex("k");
  const VertexId z1 = g.add_vertex("z1", false, true);
  const VertexId z2 = g.add_vertex("z2", false, true);
  g.add_edge(a, k, form(1.0, {0.1}, 0.1));
  g.add_edge(k, z1, form(2.0, {0.2}, 0.1));
  g.add_edge(k, z2, form(3.0, {0.0}, 0.2));
  const DelayMatrix before = core::all_pairs_io_delays(g);
  const ReduceStats stats = reduce_graph(g);
  EXPECT_GE(stats.serial_merges, 1u);
  EXPECT_FALSE(g.vertex_alive(k));
  EXPECT_EQ(g.num_live_edges(), 2u);
  expect_matrices_match(core::all_pairs_io_delays(g), before, 1e-12);
}

TEST(Reduce, ReverseSerialMergeThroughSingleFanout) {
  // Paper Fig. 1b: vk with two fanins and one fanout disappears.
  TimingGraph g(1);
  const VertexId a = g.add_vertex("a", true);
  const VertexId b = g.add_vertex("b", true);
  const VertexId k = g.add_vertex("k");
  const VertexId z = g.add_vertex("z", false, true);
  g.add_edge(a, k, form(1.0, {0.1}, 0.1));
  g.add_edge(b, k, form(2.0, {0.0}, 0.2));
  g.add_edge(k, z, form(1.5, {0.2}, 0.1));
  const DelayMatrix before = core::all_pairs_io_delays(g);
  reduce_graph(g);
  EXPECT_FALSE(g.vertex_alive(k));
  EXPECT_EQ(g.num_live_edges(), 2u);
  expect_matrices_match(core::all_pairs_io_delays(g), before, 1e-12);
}

TEST(Reduce, ParallelMergeFoldsClarkMax) {
  TimingGraph g(1);
  const VertexId a = g.add_vertex("a", true);
  const VertexId z = g.add_vertex("z", false, true);
  g.add_edge(a, z, form(1.0, {0.1}, 0.2));
  g.add_edge(a, z, form(1.1, {0.2}, 0.1));
  g.add_edge(a, z, form(0.9, {0.0}, 0.3));
  const DelayMatrix before = core::all_pairs_io_delays(g);
  timing::MaxDiagnostics diag;
  const size_t merged = parallel_merge_pass(g, &diag);
  EXPECT_EQ(merged, 1u);
  EXPECT_EQ(g.num_live_edges(), 1u);
  // The merged edge equals the fold of the three delays: propagation from a
  // common source commutes with the merge.
  expect_matrices_match(core::all_pairs_io_delays(g), before, 1e-12);
}

TEST(Reduce, DanglingCascades) {
  TimingGraph g(1);
  const VertexId a = g.add_vertex("a", true);
  const VertexId z = g.add_vertex("z", false, true);
  const VertexId d1 = g.add_vertex("d1");
  const VertexId d2 = g.add_vertex("d2");
  g.add_edge(a, z, form(1.0, {0.0}, 0.0));
  // d1 -> d2 hangs off nothing that reaches an output.
  g.add_edge(a, d1, form(1.0, {0.0}, 0.0));
  g.add_edge(d1, d2, form(1.0, {0.0}, 0.0));
  const size_t removed = remove_dangling(g);
  EXPECT_EQ(removed, 2u);
  EXPECT_FALSE(g.vertex_alive(d1));
  EXPECT_FALSE(g.vertex_alive(d2));
  EXPECT_EQ(g.num_live_edges(), 1u);
  g.validate();
}

TEST(Reduce, PortsAreNeverMerged) {
  // An internal-looking chain a -> p -> z where p is an output port: p must
  // survive even though it has one fanin and one fanout.
  TimingGraph g(1);
  const VertexId a = g.add_vertex("a", true);
  const VertexId p = g.add_vertex("p", false, true);
  const VertexId z = g.add_vertex("z", false, true);
  g.add_edge(a, p, form(1.0, {0.0}, 0.1));
  g.add_edge(p, z, form(1.0, {0.0}, 0.1));
  reduce_graph(g);
  EXPECT_TRUE(g.vertex_alive(p));
  EXPECT_EQ(g.num_live_edges(), 2u);
}

class ExtractionTest : public ::testing::Test {
 protected:
  ExtractionTest()
      : nl_(netlist::make_random_dag(spec(), lib())),
        pl_(placement::place_rows(nl_)),
        mv_(variation::make_module_variation(
            pl_, nl_.num_gates(), variation::default_90nm_parameters(),
            variation::SpatialCorrelationConfig{})),
        built_(timing::build_timing_graph(nl_, pl_, mv_)) {}

  static netlist::RandomDagSpec spec() {
    netlist::RandomDagSpec s;
    s.num_inputs = 12;
    s.num_outputs = 6;
    s.num_gates = 200;
    s.num_pins = 360;
    s.depth = 14;
    s.seed = 42;
    return s;
  }

  static const library::CellLibrary& lib() {
    static const library::CellLibrary l = library::default_90nm();
    return l;
  }

  netlist::Netlist nl_;
  placement::Placement pl_;
  variation::ModuleVariation mv_;
  timing::BuiltGraph built_;
};

TEST_F(ExtractionTest, CompressesAndPreservesIoDelays) {
  Extraction ex = extract_timing_model(built_, mv_, nl_.name(),
                                       compute_boundary(nl_));
  const ExtractionStats& st = ex.stats;
  EXPECT_EQ(st.original_edges, built_.graph.num_live_edges());
  EXPECT_LT(st.model_edges, st.original_edges);
  EXPECT_LT(st.model_vertices, st.original_vertices);
  EXPECT_LT(st.edge_ratio(), 0.7);
  EXPECT_EQ(st.criticalities.size(), st.original_edges);

  const DelayMatrix original = core::all_pairs_io_delays(built_.graph);
  const DelayMatrix modeled = ex.model.io_delays();
  // Model contract: same connectivity, means within ~2%.
  expect_matrices_match(modeled, original, 0.02);
  ex.model.graph().validate();
}

TEST_F(ExtractionTest, ZeroThresholdStillReduces) {
  ExtractOptions opts;
  opts.criticality_threshold = 0.0;
  Extraction ex = extract_timing_model(built_, mv_, nl_.name(),
                                       compute_boundary(nl_), exec::serial(),
                                       opts);
  EXPECT_EQ(ex.stats.edges_pruned, 0u);
  EXPECT_LT(ex.stats.model_edges, ex.stats.original_edges);
  // Merges are exact on tree paths; serial merges through reconvergent
  // fanout duplicate aggregated randoms. The residue scales with how much
  // reconvergence the seed-42 DAG realizes — sub-1% here, well inside the
  // 2% model contract above.
  expect_matrices_match(ex.model.io_delays(),
                        core::all_pairs_io_delays(built_.graph), 1e-2);
}

TEST_F(ExtractionTest, CompressionGrowsWithThreshold) {
  size_t prev_edges = SIZE_MAX;
  for (double delta : {0.0, 0.05, 0.2}) {
    ExtractOptions opts;
    opts.criticality_threshold = delta;
    Extraction ex = extract_timing_model(built_, mv_, nl_.name(),
                                         compute_boundary(nl_),
                                         exec::serial(), opts);
    EXPECT_LE(ex.stats.model_edges, prev_edges) << "delta " << delta;
    prev_edges = ex.stats.model_edges;
  }
}

TEST(Extraction, RepairRestoresPrunedConnectivity) {
  // Eight balanced parallel branches: each edge has criticality ~1/8,
  // below delta = 0.3, so pruning would disconnect the single IO pair.
  auto space = std::make_shared<const variation::VariationSpace>(
      variation::default_90nm_parameters(),
      variation::GridPartition(placement::Die{10, 10}, 1, 1).geometry(),
      variation::SpatialCorrelationConfig{});
  variation::ModuleVariation mv{
      variation::GridPartition(placement::Die{10, 10}, 1, 1), space};

  timing::BuiltGraph built{TimingGraph(space), {}, {}, {}, {}, {}};
  TimingGraph& g = built.graph;
  const VertexId a = g.add_vertex("a", true);
  const VertexId z = g.add_vertex("z", false, true);
  const size_t dim = space->dim();
  for (int b = 0; b < 8; ++b) {
    const std::string branch = std::to_string(b);
    const VertexId m = g.add_vertex("m" + branch);
    CanonicalForm d1(dim), d2(dim);
    d1.set_nominal(1.0);
    d1.set_random(0.05);
    d2.set_nominal(1.0);
    d2.set_random(0.05);
    g.add_edge(a, m, std::move(d1));
    g.add_edge(m, z, std::move(d2));
  }
  BoundaryData boundary{{1.0}, {0.004}};

  ExtractOptions opts;
  opts.criticality_threshold = 0.3;
  const Extraction ex =
      extract_timing_model(built, mv, "branches", boundary, exec::serial(),
                           opts);
  EXPECT_GT(ex.stats.pairs_repaired, 0u);
  const DelayMatrix m = ex.model.io_delays();
  ASSERT_TRUE(m.is_valid(0, 0));
  // The repaired model keeps one representative path.
  EXPECT_NEAR(m.at(0, 0).nominal(), 2.0, 0.2);

  // Without repair the pair goes dark.
  opts.repair_connectivity = false;
  const Extraction bare =
      extract_timing_model(built, mv, "branches", boundary, exec::serial(),
                           opts);
  EXPECT_FALSE(bare.model.io_delays().is_valid(0, 0));
}

TEST_F(ExtractionTest, SerializationRoundTripsBitExactly) {
  Extraction ex = extract_timing_model(built_, mv_, nl_.name(),
                                       compute_boundary(nl_));
  std::ostringstream os;
  ex.model.save(os);
  std::istringstream is(os.str());
  const TimingModel loaded = TimingModel::load(is);

  EXPECT_EQ(loaded.name(), ex.model.name());
  EXPECT_EQ(loaded.input_names(), ex.model.input_names());
  EXPECT_EQ(loaded.output_names(), ex.model.output_names());
  EXPECT_EQ(loaded.boundary().input_cap, ex.model.boundary().input_cap);
  EXPECT_EQ(loaded.boundary().output_drive_res,
            ex.model.boundary().output_drive_res);
  EXPECT_EQ(loaded.graph().num_live_edges(),
            ex.model.graph().num_live_edges());
  EXPECT_EQ(loaded.graph().dim(), ex.model.graph().dim());

  // Delay matrices agree bit-exactly: the loader reproduced the space and
  // the hex-float coefficients.
  const DelayMatrix a = ex.model.io_delays();
  const DelayMatrix b = loaded.io_delays();
  for (size_t i = 0; i < a.num_inputs(); ++i)
    for (size_t j = 0; j < a.num_outputs(); ++j) {
      ASSERT_EQ(a.is_valid(i, j), b.is_valid(i, j));
      if (!a.is_valid(i, j)) continue;
      EXPECT_EQ(a.at(i, j).nominal(), b.at(i, j).nominal());
      EXPECT_EQ(a.at(i, j).sigma(), b.at(i, j).sigma());
    }
}

TEST(TimingModelIo, LoadRejectsCorruptFiles) {
  EXPECT_THROW((void)TimingModel::load_file("/nonexistent/x.hstm"), Error);
  std::istringstream bad1("not-a-model");
  EXPECT_THROW((void)TimingModel::load(bad1), Error);
  std::istringstream bad2("hstm 999\n");
  EXPECT_THROW((void)TimingModel::load(bad2), Error);
  std::istringstream truncated("hstm 1\nname m\ndie 0x1p+5 0x1p+5\n");
  EXPECT_THROW((void)TimingModel::load(truncated), Error);
}

/// A four-vertex diamond model small enough to text-edit in tests.
TimingModel tiny_model() {
  auto space = std::make_shared<const variation::VariationSpace>(
      variation::default_90nm_parameters(),
      variation::GridPartition(placement::Die{10, 10}, 1, 1).geometry(),
      variation::SpatialCorrelationConfig{});
  variation::ModuleVariation mv{
      variation::GridPartition(placement::Die{10, 10}, 1, 1), space};
  TimingGraph g(space);
  const VertexId a = g.add_vertex("a", true);
  const VertexId m1 = g.add_vertex("m1");
  const VertexId m2 = g.add_vertex("m2");
  const VertexId z = g.add_vertex("z", false, true);
  const size_t dim = space->dim();
  auto delay = [&](double nom) {
    CanonicalForm d(dim);
    d.set_nominal(nom);
    d.set_random(0.05);
    return d;
  };
  g.add_edge(a, m1, delay(1.0));
  g.add_edge(m1, z, delay(1.5));
  g.add_edge(a, m2, delay(2.0));
  g.add_edge(m2, z, delay(0.5));
  return TimingModel("tiny", std::move(g), std::move(mv),
                     BoundaryData{{1.0}, {0.004}});
}

std::string tiny_model_text() {
  std::ostringstream os;
  tiny_model().save(os);
  return os.str();
}

/// Replace the first occurrence of `from` (must exist) with `to`.
std::string patched(std::string text, const std::string& from,
                    const std::string& to) {
  const size_t pos = text.find(from);
  EXPECT_NE(pos, std::string::npos) << from;
  text.replace(pos, from.size(), to);
  return text;
}

TEST(TimingModelIo, SaveDetectsFailedStream) {
  const TimingModel m = tiny_model();
  std::ostringstream os;
  os.setstate(std::ios::badbit);
  EXPECT_THROW(m.save(os), Error);

  // A stream that fails part-way (simulated via a tiny failbit trigger on
  // overflow) must also throw rather than silently truncate.
  std::ostringstream partial;
  m.save(partial);  // healthy stream: fine
  partial.setstate(std::ios::failbit);
  EXPECT_THROW(m.save(partial), Error);
}

TEST(TimingModelIo, SaveFileToFullDeviceThrows) {
  // /dev/full accepts the open and fails every flush with ENOSPC — the
  // canonical "disk full" reproduction. Skip where it does not exist.
  if (!std::filesystem::exists("/dev/full"))
    GTEST_SKIP() << "/dev/full not available";
  EXPECT_THROW(tiny_model().save_file("/dev/full"), Error);
}

TEST(TimingModelIo, RoundTripsTinyModel) {
  const std::string text = tiny_model_text();
  std::istringstream is(text);
  const TimingModel loaded = TimingModel::load(is);
  std::ostringstream os;
  loaded.save(os);
  EXPECT_EQ(os.str(), text);
}

TEST(TimingModelIo, LoadRejectsSignedOrMalformedCounts) {
  // Counts must parse strictly — "+5" and friends are accepted by a raw
  // `is >>` but rejected by util::parse_count.
  const std::string text = tiny_model_text();
  for (const auto& [from, to] :
       std::vector<std::pair<std::string, std::string>>{
           {"grid 1 1", "grid +1 1"},
           {"grid 1 1", "grid 0x1 1"},
           {"params 3", "params +3"},
           {"ports 1 1", "ports 1 -1"},
           {"vertices 4", "vertices 4.0"},
           {"edges 4", "edges +4"},
           {"e 0 1", "e +0 1"}}) {
    std::istringstream is(patched(text, from, to));
    EXPECT_THROW((void)TimingModel::load(is), Error) << from << " -> " << to;
  }
}

TEST(TimingModelIo, LoadRejectsTrailingGarbage) {
  const std::string text = tiny_model_text();
  std::istringstream junk(text + "junk\n");
  EXPECT_THROW((void)TimingModel::load(junk), Error);
  // Two concatenated models (a classic corrupt-cache shape) must not load
  // as the first one.
  std::istringstream doubled(text + text);
  EXPECT_THROW((void)TimingModel::load(doubled), Error);
  // Even a lone stray token counts.
  std::istringstream stray(text + " x");
  EXPECT_THROW((void)TimingModel::load(stray), Error);
}

TEST(TimingModelIo, LoadRejectsDuplicateVertexNames) {
  const std::string text = patched(tiny_model_text(), "v m2 x", "v m1 x");
  std::istringstream is(text);
  try {
    (void)TimingModel::load(is);
    FAIL() << "duplicate vertex name must be rejected";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate vertex name"),
              std::string::npos)
        << e.what();
  }
}

TEST(Boundary, ComputedFromNetlist) {
  const library::CellLibrary& lib = library::default_90nm();
  netlist::Netlist nl("b");
  const auto a = nl.add_primary_input("a");
  const auto b = nl.add_primary_input("b");
  const auto y = nl.add_net("y");
  const auto z = nl.add_net("z");
  nl.add_gate("g1", &lib.get("NAND2"), {a, b}, y);
  nl.add_gate("g2", &lib.get("INV"), {y, }, z);
  nl.mark_primary_output(z);
  const BoundaryData bd = compute_boundary(nl);
  ASSERT_EQ(bd.input_cap.size(), 2u);
  EXPECT_DOUBLE_EQ(bd.input_cap[0], lib.get("NAND2").input_cap);
  ASSERT_EQ(bd.output_drive_res.size(), 1u);
  EXPECT_DOUBLE_EQ(bd.output_drive_res[0], lib.get("INV").drive_res);
}

}  // namespace
}  // namespace hssta::model
