// Unit tests for hssta/netlist: construction invariants, topological order,
// depth, boolean simulation, and .bench round-trips.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>

#include "hssta/library/cell_library.hpp"
#include "hssta/netlist/bench_io.hpp"
#include "hssta/netlist/netlist.hpp"
#include "hssta/util/error.hpp"

namespace hssta::netlist {
namespace {

using library::CellLibrary;

const CellLibrary& lib() {
  static const CellLibrary l = library::default_90nm();
  return l;
}

/// y = NAND(a, b); z = NOT(y). POs: z.
Netlist tiny() {
  Netlist nl("tiny");
  const NetId a = nl.add_primary_input("a");
  const NetId b = nl.add_primary_input("b");
  const NetId y = nl.add_net("y");
  const NetId z = nl.add_net("z");
  nl.add_gate("g1", &lib().get("NAND2"), {a, b}, y);
  nl.add_gate("g2", &lib().get("INV"), {y}, z);
  nl.mark_primary_output(z);
  return nl;
}

TEST(Netlist, BasicConstruction) {
  Netlist nl = tiny();
  EXPECT_EQ(nl.num_nets(), 4u);
  EXPECT_EQ(nl.num_gates(), 2u);
  EXPECT_EQ(nl.num_pins(), 3u);
  EXPECT_EQ(nl.primary_inputs().size(), 2u);
  EXPECT_EQ(nl.primary_outputs().size(), 1u);
  EXPECT_TRUE(nl.is_primary_input(0));
  EXPECT_FALSE(nl.is_primary_input(2));
  EXPECT_NO_THROW(nl.validate());
  EXPECT_EQ(nl.net_by_name("y"), 2u);
  EXPECT_THROW((void)nl.net_by_name("nope"), Error);
}

TEST(Netlist, RejectsDoubleDriver) {
  Netlist nl = tiny();
  EXPECT_THROW(nl.add_gate("bad", &lib().get("INV"), {0}, 2), Error);
}

TEST(Netlist, RejectsDrivenPrimaryInput) {
  Netlist nl("x");
  const NetId a = nl.add_primary_input("a");
  const NetId y = nl.add_net("y");
  nl.add_gate("g", &lib().get("INV"), {a}, y);
  EXPECT_THROW(nl.mark_primary_input(y), Error);
}

TEST(Netlist, RejectsArityMismatch) {
  Netlist nl("x");
  const NetId a = nl.add_primary_input("a");
  const NetId y = nl.add_net("y");
  EXPECT_THROW(nl.add_gate("g", &lib().get("NAND2"), {a}, y), Error);
}

TEST(Netlist, TopologicalOrderRespectsDependencies) {
  Netlist nl = tiny();
  const auto order = nl.topological_order();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 0u);  // NAND before INV
  EXPECT_EQ(order[1], 1u);
}

TEST(Netlist, TopologicalOrderHandlesSameNetTwice) {
  // XOR2(a, a): a gate consuming one net on two pins.
  Netlist nl("dup");
  const NetId a = nl.add_primary_input("a");
  const NetId b = nl.add_net("b");
  const NetId y = nl.add_net("y");
  nl.add_gate("g0", &lib().get("INV"), {a}, b);
  nl.add_gate("g1", &lib().get("XOR2"), {b, b}, y);
  nl.mark_primary_output(y);
  const auto order = nl.topological_order();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 0u);
  const auto v = nl.simulate({true});
  EXPECT_FALSE(v[y]);  // x ^ x == 0
}

TEST(Netlist, DepthOfChain) {
  Netlist nl("chain");
  NetId prev = nl.add_primary_input("a");
  for (int i = 0; i < 5; ++i) {
    const std::string index = std::to_string(i);
    const NetId next = nl.add_net("n" + index);
    nl.add_gate("g" + index, &lib().get("INV"), {prev}, next);
    prev = next;
  }
  nl.mark_primary_output(prev);
  EXPECT_EQ(nl.depth(), 5u);
}

TEST(Netlist, SimulateNandInv) {
  Netlist nl = tiny();
  // z = NOT(NAND(a,b)) = a AND b.
  for (bool a : {false, true})
    for (bool b : {false, true}) {
      const auto v = nl.simulate({a, b});
      EXPECT_EQ(v[nl.primary_outputs()[0]], a && b);
    }
}

TEST(Netlist, ValidateCatchesUndrivenNet) {
  Netlist nl("bad");
  const NetId a = nl.add_primary_input("a");
  const NetId y = nl.add_net("y");
  const NetId dangling = nl.add_net("floats");
  const NetId z = nl.add_net("z");
  nl.add_gate("g", &lib().get("INV"), {a}, y);
  nl.add_gate("g2", &lib().get("NAND2"), {y, dangling}, z);
  nl.mark_primary_output(z);
  EXPECT_THROW(nl.validate(), Error);
}

TEST(BenchIo, ParsesSimpleCircuit) {
  const char* text = R"(
# simple test circuit
INPUT(a)
INPUT(b)
OUTPUT(z)
y = NAND(a, b)
z = NOT(y)
)";
  Netlist nl = read_bench_string(text, lib(), "simple");
  EXPECT_EQ(nl.num_gates(), 2u);
  EXPECT_EQ(nl.primary_inputs().size(), 2u);
  EXPECT_EQ(nl.primary_outputs().size(), 1u);
  const auto v = nl.simulate({true, true});
  EXPECT_TRUE(v[nl.primary_outputs()[0]]);
}

TEST(BenchIo, DecomposesWideGates) {
  // 7-input NAND: must decompose into AND tree + NAND while staying
  // logically a 7-input NAND.
  std::string text;
  for (int i = 0; i < 7; ++i)
    text += "INPUT(i" + std::to_string(i) + ")\n";
  text += "OUTPUT(z)\n";
  text += "z = NAND(i0, i1, i2, i3, i4, i5, i6)\n";
  Netlist nl = read_bench_string(text, lib(), "wide");
  EXPECT_GT(nl.num_gates(), 1u);
  for (GateId g = 0; g < nl.num_gates(); ++g)
    EXPECT_LE(nl.gate(g).fanins.size(), 4u);
  // Exhaustive functional check.
  for (uint32_t mask = 0; mask < (1u << 7); ++mask) {
    std::vector<bool> pi(7);
    for (int i = 0; i < 7; ++i) pi[i] = (mask >> i) & 1u;
    const auto v = nl.simulate(pi);
    EXPECT_EQ(v[nl.primary_outputs()[0]], mask != (1u << 7) - 1) << mask;
  }
}

TEST(BenchIo, SingleInputWideFunctionsDegenerate) {
  const char* text = R"(
INPUT(a)
OUTPUT(y)
OUTPUT(z)
y = AND(a)
z = NOR(a)
)";
  Netlist nl = read_bench_string(text, lib(), "degenerate");
  const auto v1 = nl.simulate({true});
  EXPECT_TRUE(v1[nl.net_by_name("y")]);
  EXPECT_FALSE(v1[nl.net_by_name("z")]);
  const auto v0 = nl.simulate({false});
  EXPECT_FALSE(v0[nl.net_by_name("y")]);
  EXPECT_TRUE(v0[nl.net_by_name("z")]);
}

TEST(BenchIo, RoundTripPreservesStructureAndFunction) {
  const char* text = R"(
INPUT(a)
INPUT(b)
INPUT(c)
OUTPUT(out)
t1 = XOR(a, b)
t2 = OR(b, c)
out = AND(t1, t2)
)";
  Netlist nl1 = read_bench_string(text, lib(), "rt");
  Netlist nl2 = read_bench_string(write_bench_string(nl1), lib(), "rt2");
  EXPECT_EQ(nl1.num_gates(), nl2.num_gates());
  EXPECT_EQ(nl1.num_pins(), nl2.num_pins());
  for (uint32_t mask = 0; mask < 8; ++mask) {
    std::vector<bool> pi{bool(mask & 1), bool(mask & 2), bool(mask & 4)};
    EXPECT_EQ(nl1.simulate(pi)[nl1.primary_outputs()[0]],
              nl2.simulate(pi)[nl2.primary_outputs()[0]]);
  }
}

TEST(BenchIo, DffLinesBecomeRegisterRecords) {
  const char* text =
      "INPUT(a)\nOUTPUT(y)\nq = DFF(d)\nd = NAND(a, q)\ny = NOT(q)\n";
  const Netlist nl = read_bench_string(text, lib(), "seq");
  EXPECT_TRUE(nl.is_sequential());
  ASSERT_EQ(nl.num_registers(), 1u);
  EXPECT_EQ(nl.num_gates(), 2u);
  const Register& r = nl.reg(0);
  EXPECT_EQ(r.name, "q");
  EXPECT_EQ(nl.net_name(r.data_in), "d");
  EXPECT_EQ(nl.net_name(r.data_out), "q");
  // .bench has a single implicit clock: records are unclocked, init
  // unknown.
  EXPECT_EQ(r.clock, kNoNet);
  EXPECT_EQ(r.init, 3);
  EXPECT_TRUE(nl.is_register_output(r.data_out));
  EXPECT_EQ(nl.register_driver(r.data_out), 0u);
  // The register cuts the q -> d loop: the combinational core stays a DAG.
  EXPECT_NO_THROW((void)nl.topological_order());

  // write_bench emits DFF lines and the result re-reads identically.
  const std::string written = write_bench_string(nl);
  EXPECT_NE(written.find("q = DFF(d)"), std::string::npos) << written;
  const Netlist again = read_bench_string(written, lib(), "seq");
  EXPECT_EQ(fingerprint(again), fingerprint(nl));
}

TEST(BenchIo, CombinationalParseIsUntouchedBySequentialSupport) {
  // A DFF-free file must parse exactly as before the sequential
  // extension: no register records, identical fingerprint and bytes
  // through the writer.
  const char* text =
      "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nt = NAND(a, b)\ny = NOT(t)\n";
  const Netlist nl = read_bench_string(text, lib(), "comb");
  EXPECT_FALSE(nl.is_sequential());
  EXPECT_EQ(nl.num_registers(), 0u);
  const std::string once = write_bench_string(nl);
  EXPECT_EQ(once.find("DFF"), std::string::npos);
  const Netlist again = read_bench_string(once, lib(), "comb");
  EXPECT_EQ(fingerprint(again), fingerprint(nl));
  EXPECT_EQ(write_bench_string(again), once);
}

TEST(BenchIo, ErrorsCarryLineNumbers) {
  try {
    (void)read_bench_string("INPUT(a)\nz = FROB(a)\n", lib(), "bad");
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("frob"), std::string::npos) << what;
    // The offending gate is on line 2 of the string; the origin of a
    // string parse is the "<bench>" placeholder.
    EXPECT_NE(what.find("<bench>:2:"), std::string::npos) << what;
  }
  try {
    (void)read_bench_string("INPUT(a)\n\n# pad\nz = AND(a\n", lib(), "bad2");
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    // Blank and comment lines still count toward the reported line.
    EXPECT_NE(std::string(e.what()).find("<bench>:4:"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW((void)read_bench_string("OUTPUT(ghost)\n", lib(), "bad3"),
               Error);
}

TEST(BenchIo, FileErrorsNameThePath) {
  const std::string path = std::string(::testing::TempDir()) +
                           "hssta_bench_err_" + std::to_string(::getpid()) +
                           ".bench";
  {
    std::ofstream out(path);
    out << "INPUT(a)\nOUTPUT(x)\nx = FROB(a)\n";
  }
  try {
    (void)read_bench_file(path, lib());
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(path + ":3:"), std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

TEST(BenchIo, ValidateFalseReturnsDefectiveNetlistForLinting) {
  // An undriven fanin is a structural defect: the default (validating)
  // read throws, while the lint path returns the netlist so hssta::check
  // can report every defect with a rule id instead of dying on the first.
  const char* text = "INPUT(a)\nOUTPUT(x)\nx = AND(a, ghost)\n";
  EXPECT_THROW((void)read_bench_string(text, lib(), "bad"), Error);
  const Netlist nl =
      read_bench_string(text, lib(), "bad", /*validate=*/false);
  EXPECT_EQ(nl.num_gates(), 1u);
  EXPECT_NO_THROW((void)nl.net_by_name("ghost"));
}

}  // namespace
}  // namespace hssta::netlist
