// Tests for the circuit generators: calibration of the random DAG to the
// requested statistics, functional correctness of the arithmetic circuits,
// and reproducibility of the synthetic ISCAS85 suite.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "hssta/library/cell_library.hpp"
#include "hssta/netlist/generate.hpp"
#include "hssta/netlist/iscas.hpp"
#include "hssta/stats/rng.hpp"
#include "hssta/util/error.hpp"

namespace hssta::netlist {
namespace {

using library::CellLibrary;

const CellLibrary& lib() {
  static const CellLibrary l = library::default_90nm();
  return l;
}

TEST(RandomDag, HitsRequestedStatistics) {
  RandomDagSpec spec;
  spec.num_inputs = 20;
  spec.num_outputs = 8;
  spec.num_gates = 200;
  spec.num_pins = 380;
  spec.depth = 15;
  spec.seed = 7;
  Netlist nl = make_random_dag(spec, lib());
  nl.validate();
  EXPECT_EQ(nl.num_gates(), spec.num_gates);
  EXPECT_EQ(nl.primary_inputs().size(), spec.num_inputs);
  EXPECT_GE(nl.primary_outputs().size(), spec.num_outputs);
  EXPECT_LE(nl.primary_outputs().size(), spec.num_outputs + 3);
  // Pin target hit exactly or with a tiny connectivity-repair overshoot.
  EXPECT_GE(nl.num_pins(), spec.num_pins);
  EXPECT_LE(nl.num_pins(), spec.num_pins + 8);
  EXPECT_GE(nl.depth(), spec.depth);
}

TEST(RandomDag, EveryInputUsedEveryGateObservable) {
  RandomDagSpec spec;
  spec.num_inputs = 30;
  spec.num_outputs = 5;
  spec.num_gates = 120;
  spec.num_pins = 200;
  spec.depth = 12;
  spec.seed = 3;
  Netlist nl = make_random_dag(spec, lib());
  const auto& sinks = nl.net_sinks();
  for (NetId pi : nl.primary_inputs())
    EXPECT_FALSE(sinks[pi].empty()) << "unused PI " << nl.net_name(pi);
  for (GateId g = 0; g < nl.num_gates(); ++g) {
    const NetId out = nl.gate(g).output;
    EXPECT_TRUE(!sinks[out].empty() || nl.is_primary_output(out))
        << "unobservable gate " << nl.gate(g).name;
  }
}

TEST(RandomDag, DeterministicInSeed) {
  RandomDagSpec spec;
  spec.num_gates = 80;
  spec.num_pins = 150;
  spec.depth = 8;
  spec.seed = 11;
  Netlist a = make_random_dag(spec, lib());
  Netlist b = make_random_dag(spec, lib());
  ASSERT_EQ(a.num_gates(), b.num_gates());
  for (GateId g = 0; g < a.num_gates(); ++g) {
    EXPECT_EQ(a.gate(g).type, b.gate(g).type);
    EXPECT_EQ(a.gate(g).fanins, b.gate(g).fanins);
  }
  spec.seed = 12;
  Netlist c = make_random_dag(spec, lib());
  bool differs = false;
  for (GateId g = 0; g < a.num_gates() && !differs; ++g)
    differs = a.gate(g).fanins != c.gate(g).fanins;
  EXPECT_TRUE(differs);
}

class RandomDagSweep
    : public ::testing::TestWithParam<std::tuple<size_t, size_t, double>> {};

TEST_P(RandomDagSweep, ValidAcrossShapes) {
  const auto [gates, depth, pin_factor] = GetParam();
  RandomDagSpec spec;
  spec.num_inputs = std::max<size_t>(4, gates / 10);
  spec.num_outputs = std::max<size_t>(2, gates / 20);
  spec.num_gates = gates;
  spec.num_pins = static_cast<size_t>(static_cast<double>(gates) * pin_factor);
  spec.depth = depth;
  spec.seed = gates * 31 + depth;
  Netlist nl = make_random_dag(spec, lib());
  nl.validate();
  EXPECT_EQ(nl.num_gates(), gates);
  EXPECT_GE(nl.depth(), depth);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, RandomDagSweep,
    ::testing::Values(std::tuple{40u, 4u, 1.5}, std::tuple{40u, 12u, 2.0},
                      std::tuple{150u, 10u, 1.7}, std::tuple{150u, 30u, 1.9},
                      std::tuple{600u, 25u, 1.75}, std::tuple{600u, 50u, 2.1},
                      std::tuple{1200u, 40u, 1.8}));

// Spec fidelity with the realized-stats contract: across seeds and shapes
// the returned RandomDagStats mirror the netlist exactly, every deviation
// from the spec is accounted for by the repair counters, and no gate ever
// consumes the same net on two pins.
TEST(RandomDag, SpecFidelityAndStatsAcrossSeeds) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    RandomDagSpec spec;
    spec.num_inputs = 3 + seed % 20;
    spec.num_outputs = 2 + seed % 7;
    spec.num_gates = 30 + 37 * (seed % 9);
    spec.num_pins = spec.num_gates + (spec.num_gates * (seed % 4)) / 2;
    spec.depth = 4 + seed % 11;
    spec.seed = seed * 101 + 13;
    SCOPED_TRACE("seed " + std::to_string(seed));

    RandomDagStats st;
    Netlist nl = make_random_dag(spec, lib(), &st);
    nl.validate();
    EXPECT_EQ(st.gates, nl.num_gates());
    EXPECT_EQ(st.pins, nl.num_pins());
    EXPECT_EQ(st.outputs, nl.primary_outputs().size());
    // Every deviation is counted, never silent.
    EXPECT_EQ(nl.num_pins(),
              spec.num_pins - st.pin_shortfall + st.pin_overshoot);
    EXPECT_EQ(nl.primary_outputs().size(),
              spec.num_outputs + st.output_overshoot);
    EXPECT_EQ(nl.num_gates(), spec.num_gates);
    EXPECT_EQ(nl.primary_inputs().size(), spec.num_inputs);
    EXPECT_GE(nl.depth(), spec.depth);

    // No duplicate fanin nets on any gate.
    for (GateId g = 0; g < nl.num_gates(); ++g) {
      std::vector<NetId> f = nl.gate(g).fanins;
      std::sort(f.begin(), f.end());
      EXPECT_EQ(std::adjacent_find(f.begin(), f.end()), f.end())
          << "duplicate fanin on gate " << nl.gate(g).name;
    }
  }
}

// A saturated budget (4 pins on every gate) must be realized exactly: the
// deterministic completion pass finishes whatever the random placement
// leaves behind instead of silently dropping budget.
TEST(RandomDag, SaturatedPinBudgetHitsTargetExactly) {
  RandomDagSpec spec;
  spec.num_inputs = 16;
  spec.num_outputs = 6;
  spec.num_gates = 150;
  spec.num_pins = 4 * spec.num_gates;
  spec.depth = 10;
  spec.seed = 21;
  RandomDagStats st;
  Netlist nl = make_random_dag(spec, lib(), &st);
  nl.validate();
  EXPECT_EQ(st.pin_shortfall, 0u);
  EXPECT_EQ(nl.num_pins(), spec.num_pins + st.pin_overshoot);
  for (GateId g = 0; g < nl.num_gates(); ++g)
    EXPECT_GE(nl.gate(g).fanins.size(), 3u) << nl.gate(g).name;
}

TEST(StackedDag, ScalesTilesAndReportsStats) {
  StackedDagSpec spec;
  spec.tile.num_inputs = 24;
  spec.tile.num_outputs = 24;
  spec.tile.num_gates = 400;
  spec.tile.num_pins = 700;
  spec.tile.depth = 8;
  spec.num_tiles = 6;
  spec.seed = 5;
  RandomDagStats st;
  Netlist nl = make_stacked_dag(spec, lib(), &st);
  nl.validate();
  EXPECT_EQ(nl.num_gates(), spec.num_tiles * spec.tile.num_gates);
  EXPECT_EQ(st.gates, nl.num_gates());
  EXPECT_EQ(st.pins, nl.num_pins());
  EXPECT_EQ(nl.num_pins(), spec.num_tiles * spec.tile.num_pins -
                               st.pin_shortfall + st.pin_overshoot);
  EXPECT_EQ(nl.primary_inputs().size(), spec.tile.num_inputs);
  // Depth stacks: every tile contributes at least tile.depth levels.
  EXPECT_GE(nl.depth(), spec.num_tiles * spec.tile.depth);
  // The stack stays fully connected: every PI used, every gate observable.
  const auto& sinks = nl.net_sinks();
  for (NetId pi : nl.primary_inputs())
    EXPECT_FALSE(sinks[pi].empty()) << "unused PI " << nl.net_name(pi);
  for (GateId g = 0; g < nl.num_gates(); ++g) {
    const NetId out = nl.gate(g).output;
    EXPECT_TRUE(!sinks[out].empty() || nl.is_primary_output(out))
        << "unobservable gate " << nl.gate(g).name;
  }
}

TEST(StackedDag, DeterministicInSeed) {
  StackedDagSpec spec;
  spec.tile.num_gates = 60;
  spec.tile.num_pins = 110;
  spec.tile.depth = 5;
  spec.num_tiles = 3;
  spec.seed = 9;
  Netlist a = make_stacked_dag(spec, lib());
  Netlist b = make_stacked_dag(spec, lib());
  ASSERT_EQ(a.num_gates(), b.num_gates());
  for (GateId g = 0; g < a.num_gates(); ++g)
    EXPECT_EQ(a.gate(g).fanins, b.gate(g).fanins);
}

TEST(RippleAdder, AddsExhaustivelyFourBits) {
  Netlist nl = make_ripple_adder(4, lib());
  for (uint32_t a = 0; a < 16; ++a) {
    for (uint32_t b = 0; b < 16; ++b) {
      for (uint32_t cin = 0; cin < 2; ++cin) {
        std::vector<bool> pi;
        for (int i = 0; i < 4; ++i) pi.push_back((a >> i) & 1u);
        for (int i = 0; i < 4; ++i) pi.push_back((b >> i) & 1u);
        pi.push_back(cin != 0);
        const auto v = nl.simulate(pi);
        uint32_t sum = 0;
        const auto& pos = nl.primary_outputs();
        for (int i = 0; i < 5; ++i)
          sum |= static_cast<uint32_t>(v[pos[i]]) << i;
        EXPECT_EQ(sum, a + b + cin);
      }
    }
  }
}

TEST(ArrayMultiplier, MultipliesRandomVectors8x8) {
  Netlist nl = make_array_multiplier(8, 8, lib());
  EXPECT_EQ(nl.primary_inputs().size(), 16u);
  EXPECT_EQ(nl.primary_outputs().size(), 16u);
  stats::Rng rng(5);
  for (int trial = 0; trial < 50; ++trial) {
    const uint32_t a = static_cast<uint32_t>(rng.uniform_index(256));
    const uint32_t b = static_cast<uint32_t>(rng.uniform_index(256));
    std::vector<bool> pi;
    for (int i = 0; i < 8; ++i) pi.push_back((a >> i) & 1u);
    for (int i = 0; i < 8; ++i) pi.push_back((b >> i) & 1u);
    const auto v = nl.simulate(pi);
    uint32_t prod = 0;
    const auto& pos = nl.primary_outputs();
    for (int i = 0; i < 16; ++i)
      prod |= static_cast<uint32_t>(v[pos[i]]) << i;
    EXPECT_EQ(prod, a * b) << a << " * " << b;
  }
}

TEST(ArrayMultiplier, SixteenBitStructureMatchesC6288) {
  Netlist nl = make_array_multiplier(16, 16, lib());
  EXPECT_EQ(nl.primary_inputs().size(), 32u);
  EXPECT_EQ(nl.primary_outputs().size(), 32u);
  // 32 operand inverters + 256 partial products + 16 HA * 5 + 224 FA * 9.
  EXPECT_EQ(nl.num_gates(), 32u + 256u + 16u * 5u + 224u * 9u);
  // Published c6288 stats: 2416 gates / 4800 pins; ours within ~2%.
  EXPECT_NEAR(static_cast<double>(nl.num_gates()), 2416.0, 50.0);
  EXPECT_NEAR(static_cast<double>(nl.num_pins()), 4800.0, 100.0);
  // The famously deep carry chains.
  EXPECT_GT(nl.depth(), 60u);
  // Spot-check function at 16 bits.
  stats::Rng rng(17);
  for (int trial = 0; trial < 5; ++trial) {
    const uint64_t a = rng.uniform_index(65536);
    const uint64_t b = rng.uniform_index(65536);
    std::vector<bool> pi;
    for (int i = 0; i < 16; ++i) pi.push_back((a >> i) & 1u);
    for (int i = 0; i < 16; ++i) pi.push_back((b >> i) & 1u);
    const auto v = nl.simulate(pi);
    uint64_t prod = 0;
    const auto& pos = nl.primary_outputs();
    for (int i = 0; i < 32; ++i)
      prod |= static_cast<uint64_t>(v[pos[i]]) << i;
    EXPECT_EQ(prod, a * b);
  }
}

TEST(Iscas, ProfilesMatchTableI) {
  const auto& profiles = iscas85_profiles();
  ASSERT_EQ(profiles.size(), 10u);
  EXPECT_EQ(profiles.front().name, "c432");
  EXPECT_EQ(profiles.back().name, "c7552");
  // Eo / Vo columns of the paper's Table I.
  EXPECT_EQ(iscas85_profile("c432").pins, 336u);
  EXPECT_EQ(iscas85_profile("c432").gates + iscas85_profile("c432").inputs,
            196u);
  EXPECT_EQ(iscas85_profile("c7552").pins, 6144u);
  EXPECT_EQ(iscas85_profile("c7552").gates + iscas85_profile("c7552").inputs,
            3719u);
}

TEST(Iscas, SynthesizedCircuitsMatchProfiles) {
  for (const char* name : {"c432", "c499", "c880"}) {
    const IscasProfile& p = iscas85_profile(name);
    Netlist nl = make_iscas85(name, lib());
    nl.validate();
    EXPECT_EQ(nl.num_gates(), p.gates) << name;
    EXPECT_EQ(nl.primary_inputs().size(), p.inputs) << name;
    EXPECT_GE(nl.num_pins(), p.pins) << name;
    EXPECT_LE(nl.num_pins(), p.pins + 8) << name;
    EXPECT_GE(nl.depth(), p.depth) << name;
  }
}

TEST(Iscas, C6288IsTheMultiplier) {
  Netlist nl = make_iscas85("c6288", lib());
  EXPECT_EQ(nl.primary_inputs().size(), 32u);
  EXPECT_EQ(nl.primary_outputs().size(), 32u);
  EXPECT_GT(nl.depth(), 60u);
}

TEST(Iscas, UnknownNameThrows) {
  EXPECT_THROW((void)make_iscas85("c9999", lib()), Error);
}

}  // namespace
}  // namespace hssta::netlist
