// Regression pins: exact (seed-deterministic) values of the headline
// reproduction quantities. These are not correctness oracles — the MC and
// property suites are — but they catch silent behavioural drift in the
// pipeline (generator, placement, PCA, propagation, extraction) that the
// tolerance-based tests would absorb.
//
// If a deliberate algorithm change moves these numbers, re-baseline after
// checking the MC-validated suites still pass.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "fixtures.hpp"
#include "hssta/util/error.hpp"
#include "hssta/core/ssta.hpp"
#include "hssta/netlist/iscas.hpp"
#include "hssta/timing/statops.hpp"

namespace hssta {
namespace {

TEST(Regression, C432ExtractionStatistics) {
  const library::CellLibrary& lib = testing::default_lib();
  const netlist::Netlist nl = netlist::make_iscas85("c432", lib);
  EXPECT_EQ(nl.num_gates(), 160u);
  EXPECT_EQ(nl.num_pins(), 337u);  // 336 target + connectivity repair
  EXPECT_EQ(nl.primary_inputs().size(), 36u);
  EXPECT_EQ(nl.primary_outputs().size(), 7u);

  const placement::Placement pl = placement::place_rows(nl);
  const variation::ModuleVariation mv = variation::make_module_variation(
      pl, nl.num_gates(), variation::default_90nm_parameters(),
      variation::SpatialCorrelationConfig{});
  EXPECT_EQ(mv.partition.num_grids(), 2u);
  const timing::BuiltGraph built = timing::build_timing_graph(nl, pl, mv);
  const model::Extraction ex = model::extract_timing_model(
      built, mv, "c432", model::compute_boundary(nl));
  EXPECT_EQ(ex.stats.original_edges, 337u);
  EXPECT_EQ(ex.stats.original_vertices, 196u);
  EXPECT_EQ(ex.stats.model_edges, 87u);
  EXPECT_EQ(ex.stats.model_vertices, 62u);
  EXPECT_EQ(ex.stats.pairs_repaired, 0u);
}

TEST(Regression, SmallModuleDelayMoments) {
  const testing::ModuleUnderTest m(testing::small_module_spec(77));
  const core::SstaResult ssta = core::run_ssta(m.built.graph);
  EXPECT_NEAR(ssta.delay.nominal(), ssta.delay.nominal(), 0.0);  // finite
  // Pin to 1e-9: the whole pipeline is deterministic.
  EXPECT_NEAR(ssta.delay.nominal(), 0.73874804340848121, 1e-9);
  EXPECT_NEAR(ssta.delay.sigma(), 0.10750064596603774, 1e-9);
}

TEST(Regression, MultiplierStructureConstants) {
  const library::CellLibrary& lib = testing::default_lib();
  const netlist::Netlist nl = netlist::make_array_multiplier(16, 16, lib);
  EXPECT_EQ(nl.num_gates(), 2384u);
  EXPECT_EQ(nl.num_pins(), 4704u);
  EXPECT_EQ(nl.depth(), 148u);
}

// Golden schedule regression: every ISCAS85 fixture, plus the committed
// sequential s27, runs the full pipeline through flow::Module under both
// criticality schedules — a serial input loop (1 thread) and the per-input
// fan-out (4 threads) — and the complete .hstm extraction output must
// match byte for byte. Models serialize doubles as hex-floats, so this
// pins every canonical coefficient of the extracted model (and s27's
// register and constraint blocks), not just summary stats.
class IscasSweepModes : public ::testing::TestWithParam<std::string> {};

TEST_P(IscasSweepModes, HstmBytesIdenticalAcrossSweepModes) {
  const std::string& name = GetParam();
  auto extract_with = [&](size_t threads) {
    flow::Config cfg;
    cfg.threads = threads;
    const flow::Module m =
        name == "s27" ? flow::Module::from_file(
                            std::string(HSSTA_TESTDATA_DIR) + "/s27.bench", cfg)
                      : flow::Module::from_iscas(name, cfg);
    std::ostringstream os;
    m.model().save(os);
    return os.str();
  };
  const std::string serial = extract_with(1);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, extract_with(4));
}

std::vector<std::string> iscas_names() {
  std::vector<std::string> names;
  for (const netlist::IscasProfile& p : netlist::iscas85_profiles())
    names.push_back(p.name);
  names.push_back("s27");
  return names;
}

INSTANTIATE_TEST_SUITE_P(Regression, IscasSweepModes,
                         ::testing::ValuesIn(iscas_names()),
                         [](const ::testing::TestParamInfo<std::string>& i) {
                           return i.param;
                         });

TEST(TightnessSplit, PartitionProperties) {
  auto make = [](double nom, double rnd) {
    timing::CanonicalForm f(0);
    f.set_nominal(nom);
    f.set_random(rnd);
    return f;
  };
  auto bank = [](const std::vector<timing::CanonicalForm>& forms) {
    timing::FormBank xs(forms.size(), 0);
    for (size_t r = 0; r < forms.size(); ++r) xs.store(r, forms[r]);
    return xs;
  };
  std::vector<double> tp;
  timing::FormBank scratch;
  // Equal iid forms split evenly for any count.
  for (size_t k : {1u, 2u, 3u, 5u, 9u}) {
    const timing::FormBank xs = bank(std::vector(k, make(1.0, 0.2)));
    timing::tightness_split_into(xs, k, tp, scratch);
    ASSERT_EQ(tp.size(), k);
    double sum = 0.0;
    for (double p : tp) {
      EXPECT_NEAR(p, 1.0 / static_cast<double>(k), 0.02);
      sum += p;
    }
    EXPECT_NEAR(sum, 1.0, 1e-12);
  }
  // A dominating entry takes all the mass.
  const timing::FormBank xs =
      bank({make(10.0, 0.1), make(1.0, 0.1), make(1.0, 0.1)});
  timing::tightness_split_into(xs, 3, tp, scratch);
  EXPECT_GT(tp[0], 1.0 - 1e-9);
  EXPECT_LT(tp[1] + tp[2], 1e-9);
  // Empty input throws.
  EXPECT_THROW(timing::tightness_split_into(xs, 0, tp, scratch), Error);
}

}  // namespace
}  // namespace hssta
