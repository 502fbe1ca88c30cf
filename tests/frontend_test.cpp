// Tests for hssta::frontend — the BLIF and Liberty-lite readers, the
// content-based format detector, clock-boundary segmentation and
// sequential ("hstm 2") model extraction:
//  * golden round-trips: BLIF and Liberty text survive read -> write ->
//    re-read with identical fingerprints (including multi-model files and
//    every .latch init/control form),
//  * a malformed corpus of >= 25 documents, each asserting the thrown
//    diagnostic names its origin:line,
//  * segmentation properties: every gate in exactly one segment, segment
//    closure (fanins are launches or intra-segment outputs), deterministic
//    ordering,
//  * a differential test pinning sequential extraction: the folded
//    FF-to-FF constraints equal an independent per-segment propagation
//    fold, and the serialized model is byte-identical at 1/2/4 threads,
//  * "hstm 1" compatibility: combinational models still serialize with
//    the old header and round-trip byte-identically.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "fixtures.hpp"
#include "hssta/flow/detect.hpp"
#include "hssta/flow/flow.hpp"
#include "hssta/frontend/blif.hpp"
#include "hssta/frontend/liberty.hpp"
#include "hssta/frontend/segment.hpp"
#include "hssta/frontend/sequential.hpp"
#include "hssta/netlist/bench_io.hpp"
#include "hssta/timing/propagate.hpp"
#include "hssta/timing/statops.hpp"
#include "hssta/util/error.hpp"

namespace hssta::frontend {
namespace {

const library::CellLibrary& lib() { return testing::default_lib(); }

/// The committed testdata/sample.blif, inlined (ctest runs from the build
/// tree; the on-disk copy feeds the CI CLI smoke).
constexpr const char* kSampleBlif =
    ".model sample\n"
    ".inputs en clk\n"
    ".outputs count_or\n"
    ".names en q0 d0\n"
    "01 1\n"
    "10 1\n"
    ".names en q0 t\n"
    "11 1\n"
    ".names q1 t d1\n"
    "01 1\n"
    "10 1\n"
    ".names q0 q1 count_or\n"
    "1- 1\n"
    "-1 1\n"
    ".latch d0 q0 re clk 0\n"
    ".latch d1 q1 re clk 1\n"
    ".end\n";

/// The committed testdata/s27.bench, inlined. One segment: the
/// combinational core is fully net-connected.
constexpr const char* kS27Bench =
    "INPUT(G0)\nINPUT(G1)\nINPUT(G2)\nINPUT(G3)\n"
    "OUTPUT(G17)\n"
    "G5 = DFF(G10)\nG6 = DFF(G11)\nG7 = DFF(G13)\n"
    "G14 = NOT(G0)\nG17 = NOT(G11)\nG8 = AND(G14, G6)\n"
    "G15 = OR(G12, G8)\nG16 = OR(G3, G8)\nG9 = NAND(G16, G15)\n"
    "G10 = NOR(G14, G11)\nG11 = NOR(G5, G9)\nG12 = NOR(G1, G7)\n"
    "G13 = NAND(G2, G12)\n";

/// Two registers whose cones never touch: exactly two segments, each with
/// one FF-to-FF constraint.
constexpr const char* kTwoSegBench =
    "INPUT(a)\nINPUT(b)\nOUTPUT(y)\n"
    "q1 = DFF(d1)\nq2 = DFF(d2)\n"
    "d1 = NAND(a, q1)\n"
    "d2 = NOR(b, q2)\n"
    "y = NOT(q2)\n";

netlist::Netlist two_seg() {
  return netlist::read_bench_string(kTwoSegBench, lib(), "two_seg");
}

/// --- BLIF reader / writer ----------------------------------------------

TEST(FrontendBlif, SampleParsesWithRegistersAndRoundTrips) {
  const netlist::Netlist nl = read_blif_string(kSampleBlif, lib());
  EXPECT_EQ(nl.name(), "sample");
  EXPECT_EQ(nl.num_gates(), 4u);
  ASSERT_EQ(nl.num_registers(), 2u);
  EXPECT_TRUE(nl.is_sequential());

  const netlist::Register& r0 = nl.reg(0);
  EXPECT_EQ(nl.net_name(r0.data_in), "d0");
  EXPECT_EQ(nl.net_name(r0.data_out), "q0");
  ASSERT_NE(r0.clock, netlist::kNoNet);
  EXPECT_EQ(nl.net_name(r0.clock), "clk");
  EXPECT_EQ(r0.init, 0);
  EXPECT_EQ(nl.reg(1).init, 1);

  const std::string text = write_blif_string(nl);
  const netlist::Netlist again = read_blif_string(text, lib());
  EXPECT_EQ(netlist::fingerprint(again), netlist::fingerprint(nl));
}

TEST(FrontendBlif, CoversClassifyOntoLibraryFunctions) {
  const netlist::Netlist nl = read_blif_string(kSampleBlif, lib());
  // d0 = en XOR q0 (two-row parity cover), t = en AND q0, count_or = OR.
  EXPECT_EQ(nl.gate(nl.driver(nl.net_by_name("d0"))).type->func,
            library::GateFunc::kXor);
  EXPECT_EQ(nl.gate(nl.driver(nl.net_by_name("t"))).type->func,
            library::GateFunc::kAnd);
  EXPECT_EQ(nl.gate(nl.driver(nl.net_by_name("count_or"))).type->func,
            library::GateFunc::kOr);
}

TEST(FrontendBlif, LatchInitAndControlForms) {
  const char* text =
      ".model latches\n"
      ".inputs d clk\n"
      ".outputs q0 q1 q2 q3 q4 q5 q6\n"
      ".latch d q0 re clk 0\n"
      ".latch d q1 fe clk 1\n"
      ".latch d q2 ah clk 2\n"
      ".latch d q3 re clk 3\n"
      ".latch d q4\n"
      ".latch d q5 0\n"
      ".latch d q6 re NIL 1\n"
      ".end\n";
  const netlist::Netlist nl = read_blif_string(text, lib());
  ASSERT_EQ(nl.num_registers(), 7u);
  const int want_init[] = {0, 1, 2, 3, 3, 0, 1};
  for (size_t i = 0; i < 7; ++i) {
    const std::string index = std::to_string(i);
    EXPECT_EQ(nl.reg(i).init, want_init[i]) << "register " << i;
    EXPECT_EQ(nl.net_name(nl.reg(i).data_out), "q" + index);
  }
  // q0..q3 are clocked by clk; q4 (bare), q5 (init only) and q6 (NIL
  // control) are unclocked.
  for (size_t i = 0; i < 4; ++i) EXPECT_NE(nl.reg(i).clock, netlist::kNoNet);
  for (size_t i = 4; i < 7; ++i) EXPECT_EQ(nl.reg(i).clock, netlist::kNoNet);

  const netlist::Netlist again = read_blif_string(write_blif_string(nl), lib());
  EXPECT_EQ(netlist::fingerprint(again), netlist::fingerprint(nl));
}

constexpr const char* kMultiModel =
    ".model top\n"
    ".inputs a b\n"
    ".outputs y\n"
    ".subckt leaf p=a q=b r=y\n"
    ".end\n"
    ".model leaf\n"
    ".inputs p q\n"
    ".outputs r\n"
    ".names p q r\n"
    "11 1\n"
    ".end\n";

TEST(FrontendBlif, MultiModelSelectionAndSubcktInlining) {
  std::istringstream names_in(kMultiModel);
  const std::vector<std::string> names = blif_model_names(names_in);
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "top");
  EXPECT_EQ(names[1], "leaf");

  // Default: first model, with the leaf inlined through the bindings.
  const netlist::Netlist top = read_blif_string(kMultiModel, lib());
  EXPECT_EQ(top.name(), "top");
  ASSERT_EQ(top.num_gates(), 1u);
  EXPECT_EQ(top.gate(0).type->func, library::GateFunc::kAnd);
  EXPECT_EQ(top.net_name(top.gate(0).output), "y");

  // Explicit model selection elaborates the leaf standalone.
  BlifOptions opts;
  opts.model = "leaf";
  const netlist::Netlist leaf = read_blif_string(kMultiModel, lib(), opts);
  EXPECT_EQ(leaf.name(), "leaf");
  ASSERT_EQ(leaf.num_gates(), 1u);
  EXPECT_EQ(leaf.net_name(leaf.primary_inputs()[0]), "p");

  opts.model = "nope";
  try {
    (void)read_blif_string(kMultiModel, lib(), opts);
    FAIL() << "expected an error for an unknown model";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("no model named nope"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("top leaf"), std::string::npos)
        << "error should list the defined models: " << e.what();
  }
}

TEST(FrontendBlif, SubcktInternalsArePrefixedPerInstance) {
  const char* text =
      ".model top\n"
      ".inputs a b\n"
      ".outputs y z\n"
      ".subckt inv2 i=a o=y\n"
      ".subckt inv2 i=b o=z\n"
      ".end\n"
      ".model inv2\n"
      ".inputs i\n"
      ".outputs o\n"
      ".names i m\n"
      "0 1\n"
      ".names m o\n"
      "0 1\n"
      ".end\n";
  const netlist::Netlist nl = read_blif_string(text, lib());
  EXPECT_EQ(nl.num_gates(), 4u);
  // Each instance gets its own prefixed internal net for "m".
  EXPECT_NO_THROW((void)nl.net_by_name("inv2$0.m"));
  EXPECT_NO_THROW((void)nl.net_by_name("inv2$1.m"));
  // Functionally two back-to-back inverters: y == a, z == b.
  const std::vector<bool> vals = nl.simulate({true, false});
  EXPECT_TRUE(vals[nl.net_by_name("y")]);
  EXPECT_FALSE(vals[nl.net_by_name("z")]);
}

TEST(FrontendBlif, SequentialSimulationMatchesToggler) {
  // sample.blif is a two-bit enabled toggler: with en=1 the pair (q1,q0)
  // counts 00 -> 01 -> 10 -> 11.
  const netlist::Netlist nl = read_blif_string(kSampleBlif, lib());
  std::vector<bool> state = {false, false};  // q0, q1 (registers() order)
  const std::vector<bool> pi = {true, false};  // en=1, clk (unused by logic)
  for (const auto& want : {std::pair{true, false}, std::pair{false, true},
                           std::pair{true, true}}) {
    const std::vector<bool> nets = nl.simulate(pi, state);
    state[0] = nets[nl.reg(0).data_in];
    state[1] = nets[nl.reg(1).data_in];
    EXPECT_EQ(state[0], want.first);
    EXPECT_EQ(state[1], want.second);
  }
}

/// --- Liberty-lite reader / writer --------------------------------------

TEST(FrontendLiberty, DefaultLibraryRoundTripsThroughWriter) {
  const library::CellLibrary& ref = lib();
  const std::string text = write_liberty_string("default90", ref);
  const LibertyLibrary parsed = read_liberty_string(text);
  EXPECT_EQ(parsed.name, "default90");
  EXPECT_EQ(library::fingerprint(parsed.cells), library::fingerprint(ref));
}

TEST(FrontendLiberty, ParsesCellDataPerHeaderContract) {
  const char* text =
      "library (my90nm) {\n"
      "  delay_model : generic_cmos;\n"
      "  cell (NAND2) {\n"
      "    area : 2.0;\n"
      "    pin (A) { direction : input; capacitance : 1.1; }\n"
      "    pin (B) { direction : input; capacitance : 0.9; }\n"
      "    pin (Y) {\n"
      "      direction : output;\n"
      "      function : \"(A * B)'\";\n"
      "      timing () {\n"
      "        related_pin : \"A\";\n"
      "        intrinsic_rise : 0.035; intrinsic_fall : 0.031;\n"
      "        rise_resistance : 0.012; fall_resistance : 0.011;\n"
      "      }\n"
      "      timing () { related_pin : \"B\"; intrinsic : 0.038;\n"
      "                  rise_resistance : 0.010; }\n"
      "    }\n"
      "    sensitivity (Leff) { value : 0.55; }\n"
      "    unknown_group (x) { stuff : 1; }\n"
      "  }\n"
      "}\n";
  const LibertyLibrary l = read_liberty_string(text);
  EXPECT_EQ(l.name, "my90nm");
  const library::CellType* c = l.cells.find("NAND2");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->func, library::GateFunc::kNand);
  EXPECT_EQ(c->num_inputs, 2u);
  ASSERT_EQ(c->intrinsic.size(), 2u);
  EXPECT_DOUBLE_EQ(c->intrinsic[0], 0.035);  // max(rise, fall) of arc A
  EXPECT_DOUBLE_EQ(c->intrinsic[1], 0.038);  // plain intrinsic of arc B
  EXPECT_DOUBLE_EQ(c->drive_res, 0.012);     // max over all arcs
  EXPECT_DOUBLE_EQ(c->input_cap, 1.1);       // max pin capacitance
  EXPECT_DOUBLE_EQ(c->width, 2.0);           // area
  EXPECT_DOUBLE_EQ(c->sensitivity("Leff"), 0.55);
}

/// --- malformed corpus ----------------------------------------------------
///
/// Every parser diagnostic must name its origin and line ("<blif>:5: ...");
/// each document pins the location and a message fragment.

struct BadDoc {
  const char* label;
  enum Kind { kBlif, kLiberty, kBench } kind;
  const char* text;
  const char* where;  ///< expected "origin:line" substring
  const char* what;   ///< expected message fragment ("" = location only)
};

const BadDoc kBadDocs[] = {
    // --- BLIF -------------------------------------------------------------
    {"cover row outside .names", BadDoc::kBlif,
     ".model m\n.inputs a\n.outputs y\n11 1\n.end\n", "<blif>:4",
     "expected a directive"},
    {"directive before .model", BadDoc::kBlif, ".inputs a\n", "<blif>:1",
     "expected .model"},
    {".model without a name", BadDoc::kBlif, ".model\n.end\n", "<blif>:1",
     ".model takes exactly one name"},
    {"duplicate model name", BadDoc::kBlif,
     ".model m\n.inputs a\n.outputs y\n.names a y\n1 1\n.end\n.model m\n.end\n",
     "<blif>:7", "duplicate model name"},
    {"missing .end before next model", BadDoc::kBlif,
     ".model a\n.outputs y\n.model b\n", "<blif>:3", "missing .end"},
    {".names without signals", BadDoc::kBlif,
     ".model m\n.inputs a\n.outputs y\n.names\n.end\n", "<blif>:4",
     ".names needs at least an output signal"},
    {"cover row width mismatch", BadDoc::kBlif,
     ".model m\n.inputs a b\n.outputs y\n.names a b y\n1 1\n.end\n", "<blif>:5",
     "cover row width 1 does not match 2 inputs"},
    {"cover row bad plane character", BadDoc::kBlif,
     ".model m\n.inputs a\n.outputs y\n.names a y\nx 1\n.end\n", "<blif>:5:1",
     "cover row character must be 0, 1 or -"},
    {"cover row bad output value", BadDoc::kBlif,
     ".model m\n.inputs a\n.outputs y\n.names a y\n1 2\n.end\n", "<blif>:5",
     "cover row output must be 0 or 1"},
    {"mixed output phases", BadDoc::kBlif,
     ".model m\n.inputs a b\n.outputs y\n.names a b y\n11 1\n00 0\n.end\n",
     "<blif>:6", "mixed output phases"},
    {"constant cover", BadDoc::kBlif,
     ".model m\n.inputs a\n.outputs y\n.names y\n1\n.end\n", "<blif>:4",
     "constant .names (no inputs) is unsupported"},
    {"cover with no rows", BadDoc::kBlif,
     ".model m\n.inputs a\n.outputs y\n.names a y\n.end\n", "<blif>:4",
     "has no rows"},
    {"cover matching no gate function", BadDoc::kBlif,
     ".model m\n.inputs a b\n.outputs y\n.names a b y\n10 1\n.end\n",
     "<blif>:4", "does not match any library gate function"},
    {"latch bad init", BadDoc::kBlif,
     ".model m\n.inputs d\n.outputs q\n.latch d q 7\n.end\n", "<blif>:4",
     "latch init value must be 0..3"},
    {"latch unknown type", BadDoc::kBlif,
     ".model m\n.inputs d c\n.outputs q\n.latch d q zz c 0\n.end\n",
     "<blif>:4", "unknown latch type"},
    {"latch operand overflow", BadDoc::kBlif,
     ".model m\n.inputs d c\n.outputs q\n.latch d q re c 0 9\n.end\n",
     "<blif>:4", ".latch takes input, output"},
    {".subckt of undefined model", BadDoc::kBlif,
     ".model m\n.inputs a\n.outputs y\n.subckt nope p=a\n.end\n", "<blif>:4",
     ".subckt references undefined model"},
    {".subckt malformed binding", BadDoc::kBlif,
     ".model m\n.inputs a\n.outputs y\n.subckt leaf ab\n.end\n", "<blif>:4",
     ".subckt binding must be formal=actual"},
    {".subckt duplicate binding", BadDoc::kBlif,
     ".model m\n.inputs a\n.outputs y\n.subckt leaf p=a p=a\n.end\n",
     "<blif>:4", "duplicate .subckt binding"},
    {".subckt recursion", BadDoc::kBlif,
     ".model m\n.inputs a\n.outputs y\n.subckt m a=a y=y\n.end\n", "<blif>:4",
     "recursive .subckt instantiation"},
    {".subckt unknown pin", BadDoc::kBlif,
     ".model m\n.inputs a\n.outputs y\n.subckt leaf c=a\n.end\n"
     ".model leaf\n.inputs p\n.outputs r\n.names p r\n1 1\n.end\n",
     "<blif>:4", "has no pin named c"},
    {".subckt unbound input", BadDoc::kBlif,
     ".model m\n.inputs a\n.outputs y\n.subckt leaf p=a r=y\n.end\n"
     ".model leaf\n.inputs p q\n.outputs r\n.names p q r\n11 1\n.end\n",
     "<blif>:4", "leaves input pin q"},
    {"unsupported construct", BadDoc::kBlif,
     ".model m\n.inputs a\n.outputs y\n.gate nand2 a=a o=y\n.end\n",
     "<blif>:4:1", "unsupported BLIF construct"},
    {"model without outputs", BadDoc::kBlif, ".model m\n.inputs a\n.end\n",
     "<blif>:1", "declares no .outputs"},
    {"missing final .end", BadDoc::kBlif,
     ".model m\n.inputs a\n.outputs y\n.names a y\n1 1\n", "<blif>:1",
     "missing .end for model m"},
    {"trailing operands on .end", BadDoc::kBlif,
     ".model m\n.inputs a\n.outputs y\n.names a y\n1 1\n.end x\n", "<blif>:6",
     "trailing operands on .end"},
    {"directive after .end", BadDoc::kBlif,
     ".model m\n.inputs a\n.outputs y\n.names a y\n1 1\n.end\n.inputs b\n",
     "<blif>:7", "after .end of model m"},
    {"net driven twice", BadDoc::kBlif,
     ".model m\n.inputs a b\n.outputs y\n.names a y\n1 1\n.names b y\n1 1\n"
     ".end\n",
     "<blif>:6", ""},
    {"empty file", BadDoc::kBlif, "", "<blif>:1", "file defines no .model"},
    {"validation catches undriven net", BadDoc::kBlif,
     ".model m\n.inputs a\n.outputs y\n.names a ghost y\n11 1\n.end\n",
     "<blif>:1", "failed structural validation"},
    // --- Liberty-lite -----------------------------------------------------
    {"not a library group", BadDoc::kLiberty, "cell (X) { }\n", "<liberty>:1",
     ""},
    {"trailing content after library", BadDoc::kLiberty,
     "library (l) {\n}\nextra\n", "<liberty>:3",
     "trailing content after library group"},
    {"cell without a name", BadDoc::kLiberty,
     "library (l) {\n  cell () { }\n}\n", "<liberty>:2", "cell needs a name"},
    {"unterminated group", BadDoc::kLiberty,
     "library (l) {\n  cell (c) {\n", "<liberty>:3", "expected a statement"},
    {"unterminated string", BadDoc::kLiberty,
     "library (l) {\n  cell (c) {\n    pin (Y) { function : \"oops\n  }\n}\n",
     "<liberty>:3", "unterminated string"},
    {"missing attribute value", BadDoc::kLiberty,
     "library (l) {\n  cell (c) {\n    area : ;\n  }\n}\n", "<liberty>:3",
     "expected an attribute value"},
    {"cell with two outputs", BadDoc::kLiberty,
     "library (l) {\n cell (c) {\n"
     "  pin (A) { direction : input; capacitance : 1; }\n"
     "  pin (Y) { direction : output; function : \"!A\";\n"
     "            timing () { related_pin : \"A\"; intrinsic : 1; } }\n"
     "  pin (Z) { direction : output; function : \"!A\";\n"
     "            timing () { related_pin : \"A\"; intrinsic : 1; } }\n"
     " }\n}\n",
     "<liberty>:", "more than one output pin"},
    {"cell with no output", BadDoc::kLiberty,
     "library (l) {\n cell (c) {\n"
     "  pin (A) { direction : input; capacitance : 1; }\n }\n}\n",
     "<liberty>:", "has no output pin"},
    {"cell with no inputs", BadDoc::kLiberty,
     "library (l) {\n cell (c) {\n"
     "  pin (Y) { direction : output; function : \"!A\"; }\n }\n}\n",
     "<liberty>:", ""},
    {"mixed operators in function", BadDoc::kLiberty,
     "library (l) {\n cell (c) {\n"
     "  pin (A) { direction : input; capacitance : 1; }\n"
     "  pin (B) { direction : input; capacitance : 1; }\n"
     "  pin (Y) { direction : output; function : \"A * B + A\";\n"
     "            timing () { related_pin : \"A\"; intrinsic : 1; }\n"
     "            timing () { related_pin : \"B\"; intrinsic : 1; } }\n"
     " }\n}\n",
     "<liberty>:", "mixed operators need parentheses"},
    {"timing arc without related_pin", BadDoc::kLiberty,
     "library (l) {\n cell (c) {\n"
     "  pin (A) { direction : input; capacitance : 1; }\n"
     "  pin (Y) { direction : output; function : \"!A\";\n"
     "            timing () { intrinsic : 1; } }\n"
     " }\n}\n",
     "<liberty>:", "needs a related_pin"},
    {"sensitivity without parameter", BadDoc::kLiberty,
     "library (l) {\n cell (c) {\n"
     "  pin (A) { direction : input; capacitance : 1; }\n"
     "  pin (Y) { direction : output; function : \"!A\";\n"
     "            timing () { related_pin : \"A\"; intrinsic : 1; } }\n"
     "  sensitivity () { value : 1; }\n"
     " }\n}\n",
     "<liberty>:6", "sensitivity needs a parameter name"},
    {"sensitivity without value", BadDoc::kLiberty,
     "library (l) {\n cell (c) {\n"
     "  pin (A) { direction : input; capacitance : 1; }\n"
     "  pin (Y) { direction : output; function : \"!A\";\n"
     "            timing () { related_pin : \"A\"; intrinsic : 1; } }\n"
     "  sensitivity (Leff) { }\n"
     " }\n}\n",
     "<liberty>:", "needs a value attribute"},
    {"input pin without an arc", BadDoc::kLiberty,
     "library (l) {\n cell (c) {\n"
     "  pin (A) { direction : input; capacitance : 1; }\n"
     "  pin (B) { direction : input; capacitance : 1; }\n"
     "  pin (Y) { direction : output; function : \"A * B\";\n"
     "            timing () { related_pin : \"A\"; intrinsic : 1; } }\n"
     " }\n}\n",
     "<liberty>:", "no timing() arc for"},
    // --- .bench -----------------------------------------------------------
    {"DFF with two inputs", BadDoc::kBench,
     "INPUT(a)\nINPUT(b)\nOUTPUT(q)\nq = DFF(a, b)\n", "<bench>:4",
     "DFF takes exactly one input"},
    {"unsupported bench function", BadDoc::kBench,
     "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\ny = MAJ(a, b, c)\n",
     "<bench>:5", "unsupported bench gate function"},
    {"OUTPUT of unknown net", BadDoc::kBench, "INPUT(a)\nOUTPUT(zz)\n",
     "<bench>:2", "OUTPUT references unknown net"},
    {"bench non-assignment", BadDoc::kBench, "INPUT(a)\nwhat is this\n",
     "<bench>:2", "expected assignment"},
};

TEST(FrontendDiagnostics, MalformedCorpusNamesOriginAndLine) {
  ASSERT_GE(std::size(kBadDocs), 25u);
  for (const BadDoc& doc : kBadDocs) {
    try {
      switch (doc.kind) {
        case BadDoc::kBlif:
          (void)read_blif_string(doc.text, lib());
          break;
        case BadDoc::kLiberty:
          (void)read_liberty_string(doc.text);
          break;
        case BadDoc::kBench:
          (void)netlist::read_bench_string(doc.text, lib());
          break;
      }
      FAIL() << doc.label << ": expected a parse error";
    } catch (const Error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find(doc.where), std::string::npos)
          << doc.label << ": diagnostic should name " << doc.where
          << ", got: " << msg;
      if (doc.what[0] != '\0') {
        EXPECT_NE(msg.find(doc.what), std::string::npos)
            << doc.label << ": got: " << msg;
      }
    }
  }
}

/// --- format detection ----------------------------------------------------

TEST(FrontendDetect, ClassifiesByContentNotExtension) {
  using flow::FileFormat;
  EXPECT_EQ(flow::detect_format(kS27Bench), FileFormat::kBench);
  EXPECT_EQ(flow::detect_format(kSampleBlif), FileFormat::kBlif);
  EXPECT_EQ(flow::detect_format("hstm 1\nname top\n"), FileFormat::kHstm);
  EXPECT_EQ(flow::detect_format("hstm 2\nname top\n"), FileFormat::kHstm);
  EXPECT_EQ(flow::detect_format("hsds 1\n"), FileFormat::kDesignState);
  EXPECT_EQ(flow::detect_format("hello world\n"), FileFormat::kUnknown);
  EXPECT_EQ(flow::detect_format(""), FileFormat::kUnknown);
  // Leading comments and blank lines are transparent for both netlist
  // formats.
  EXPECT_EQ(flow::detect_format("# c\n\n# c2\nINPUT(a)\n"), FileFormat::kBench);
  EXPECT_EQ(flow::detect_format("# c\n\n.model m\n"), FileFormat::kBlif);
  // Gate assignment lines alone are recognizable .bench content.
  EXPECT_EQ(flow::detect_format("y = NAND(a, b)\n"), FileFormat::kBench);

  EXPECT_STREQ(flow::format_name(FileFormat::kBench), "ISCAS .bench");
  EXPECT_STREQ(flow::format_name(FileFormat::kBlif), "BLIF");
  EXPECT_STREQ(flow::format_name(FileFormat::kUnknown), "unknown");
}

TEST(FrontendDetect, ModuleFromFileNamesSupportedFormatsOnFailure) {
  namespace fs = std::filesystem;
  const fs::path path = fs::temp_directory_path() / "hssta_frontend_junk.txt";
  {
    std::ofstream out(path);
    out << "neither a netlist nor a model\n";
  }
  try {
    (void)flow::Module::from_file(path.string());
    FAIL() << "expected an unknown-format error";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("detected as unknown"), std::string::npos) << msg;
    EXPECT_NE(msg.find("ISCAS .bench"), std::string::npos) << msg;
    EXPECT_NE(msg.find("BLIF"), std::string::npos) << msg;
  }
  std::remove(path.string().c_str());

  EXPECT_THROW((void)flow::detect_file_format(
                   (fs::temp_directory_path() / "hssta_no_such_file").string()),
               Error);
}

TEST(FrontendDetect, ConfigCanRefuseSequentialNetlists) {
  flow::Config cfg;
  cfg.frontend.sequential = false;
  try {
    (void)flow::Module::from_bench_string(kS27Bench, cfg);
    FAIL() << "expected the sequential gate to fire";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("[frontend] sequential"), std::string::npos) << msg;
    EXPECT_NE(msg.find("3 registers"), std::string::npos) << msg;
  }
  // Combinational content is unaffected by the gate.
  EXPECT_NO_THROW((void)flow::Module::from_bench_string(
      "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n", cfg));
}

/// --- segmentation properties ---------------------------------------------

void check_segmentation_invariants(const netlist::Netlist& nl) {
  const Segmentation seg = segment_netlist(nl);
  ASSERT_EQ(seg.gate_segment.size(), nl.num_gates());

  // Every gate is in exactly one segment, and gate_segment agrees with the
  // member lists.
  std::vector<int> seen(nl.num_gates(), 0);
  for (size_t s = 0; s < seg.segments.size(); ++s) {
    ASSERT_FALSE(seg.segments[s].gates.empty());
    for (netlist::GateId g : seg.segments[s].gates) {
      ++seen[g];
      EXPECT_EQ(seg.gate_segment[g], s);
    }
    // Members ascend; segments are ordered by smallest member.
    EXPECT_TRUE(std::is_sorted(seg.segments[s].gates.begin(),
                               seg.segments[s].gates.end()));
    if (s > 0) {
      EXPECT_LT(seg.segments[s - 1].gates.front(),
                seg.segments[s].gates.front());
    }
  }
  for (size_t g = 0; g < nl.num_gates(); ++g)
    EXPECT_EQ(seen[g], 1) << "gate " << g << " must be in exactly one segment";

  // Closure: every fanin of a member gate is either a declared launch net
  // or the output of a gate in the same segment — segments are launched
  // only at clock boundaries, so their internal DAGs cannot reach into
  // each other.
  for (const Segment& s : seg.segments) {
    std::vector<uint8_t> member_out(nl.num_nets(), 0);
    for (netlist::GateId g : s.gates) member_out[nl.gate(g).output] = 1;
    std::vector<uint8_t> launch(nl.num_nets(), 0);
    for (netlist::NetId n : s.launch_nets) {
      EXPECT_TRUE(nl.is_primary_input(n) || nl.is_register_output(n))
          << "launch nets are PIs or register outputs";
      launch[n] = 1;
    }
    for (netlist::GateId g : s.gates)
      for (netlist::NetId f : nl.gate(g).fanins)
        EXPECT_TRUE(launch[f] || member_out[f])
            << "net " << nl.net_name(f) << " enters segment unlaunched";
    for (netlist::NetId n : s.capture_nets)
      EXPECT_TRUE(member_out[n] || launch[n])
          << "capture net " << nl.net_name(n) << " not driven by the segment";
  }

  // Acyclic by construction: registers cut connectivity, so the whole
  // netlist (and therefore every segment) must topologically order.
  EXPECT_NO_THROW((void)nl.topological_order());
}

TEST(FrontendSegment, TwoIndependentConesMakeTwoSegments) {
  const netlist::Netlist nl = two_seg();
  check_segmentation_invariants(nl);

  const Segmentation seg = segment_netlist(nl);
  ASSERT_EQ(seg.segments.size(), 2u);
  // Gate 0 is d1 = NAND(a, q1); gates 1..2 are the q2 cone.
  EXPECT_EQ(seg.segments[0].gates, std::vector<netlist::GateId>({0}));
  EXPECT_EQ(seg.segments[1].gates, std::vector<netlist::GateId>({1, 2}));

  auto names = [&](const std::vector<netlist::NetId>& nets) {
    std::vector<std::string> out;
    for (netlist::NetId n : nets) out.push_back(nl.net_name(n));
    return out;
  };
  EXPECT_EQ(names(seg.segments[0].launch_nets),
            std::vector<std::string>({"a", "q1"}));
  EXPECT_EQ(names(seg.segments[0].capture_nets),
            std::vector<std::string>({"d1"}));
  EXPECT_EQ(names(seg.segments[1].launch_nets),
            std::vector<std::string>({"b", "q2"}));
  EXPECT_EQ(names(seg.segments[1].capture_nets),
            std::vector<std::string>({"d2", "y"}));
}

TEST(FrontendSegment, S27IsOneSegment) {
  const netlist::Netlist nl =
      netlist::read_bench_string(kS27Bench, lib(), "s27");
  check_segmentation_invariants(nl);
  const Segmentation seg = segment_netlist(nl);
  ASSERT_EQ(seg.segments.size(), 1u);
  EXPECT_EQ(seg.segments[0].gates.size(), nl.num_gates());
}

TEST(FrontendSegment, CombinationalComponentsBecomeSegments) {
  const netlist::Netlist nl = netlist::read_bench_string(
      "INPUT(a)\nINPUT(b)\nOUTPUT(x)\nOUTPUT(z)\nx = NOT(a)\nz = NOT(b)\n",
      lib(), "comb2");
  check_segmentation_invariants(nl);
  const Segmentation seg = segment_netlist(nl);
  ASSERT_EQ(seg.segments.size(), 2u);
  EXPECT_EQ(seg.segments[0].capture_nets.size(), 1u);
  EXPECT_EQ(nl.net_name(seg.segments[0].capture_nets[0]), "x");
}

TEST(FrontendSegment, BlifSampleSegmentsShareTheToggleCone) {
  const netlist::Netlist nl = read_blif_string(kSampleBlif, lib());
  check_segmentation_invariants(nl);
}

/// --- sequential extraction ----------------------------------------------

TEST(FrontendSequential, ExtractionMatchesManualSegmentFold) {
  flow::Config cfg;
  cfg.cache.enabled = false;
  const flow::Module m = flow::Module::from_bench_string(kTwoSegBench, cfg);
  const netlist::Netlist& nl = m.netlist();
  const timing::BuiltGraph& built = m.built();
  const model::TimingModel& tm = m.model();

  ASSERT_TRUE(tm.is_sequential());
  ASSERT_EQ(tm.registers().size(), 2u);
  EXPECT_EQ(tm.registers()[0].name, "q1");
  EXPECT_EQ(tm.registers()[0].launch, "q1");
  EXPECT_EQ(tm.registers()[0].capture, "d1");
  EXPECT_EQ(tm.registers()[0].clock, "");
  EXPECT_EQ(tm.registers()[0].init, 3);
  ASSERT_EQ(tm.constraints().size(), 2u);
  EXPECT_EQ(tm.constraints()[0].label, "seg0");
  EXPECT_EQ(tm.constraints()[1].label, "seg1");

  // Independent recomputation: for each segment, propagate from its
  // register launch vertices and fold the statistical max over its
  // register capture vertices — exactly the folded quantity the model
  // stores.
  const Segmentation seg = segment_netlist(nl);
  ASSERT_EQ(seg.segments.size(), 2u);
  for (size_t s = 0; s < 2; ++s) {
    std::vector<timing::VertexId> sources;
    for (netlist::NetId n : seg.segments[s].launch_nets)
      if (nl.is_register_output(n))
        sources.push_back(
            built.register_launch_vertices[nl.register_driver(n)]);
    ASSERT_EQ(sources.size(), 1u);
    const timing::PropagationResult arrivals =
        timing::propagate_arrivals(built.graph, sources);

    bool have = false;
    timing::CanonicalForm worst(built.graph.dim());
    timing::MaxDiagnostics diag;
    for (netlist::RegId r = 0; r < nl.num_registers(); ++r) {
      const timing::VertexId v = built.register_capture_vertices[r];
      if (!arrivals.is_valid(v)) continue;
      if (!have) {
        worst = arrivals.at(v);
        have = true;
      } else {
        timing::statistical_max_accumulate(worst, arrivals.at(v), &diag);
      }
    }
    ASSERT_TRUE(have);
    EXPECT_EQ(tm.constraints()[s].delay, worst)
        << "constraint " << s << " must equal the manual segment fold";
  }

  // The direct extractor output equals what the flow attached.
  const SequentialExtraction direct = extract_sequential(nl, built);
  ASSERT_EQ(direct.constraints.size(), 2u);
  EXPECT_EQ(direct.constraints[0].delay, tm.constraints()[0].delay);
  EXPECT_EQ(direct.constraints[1].delay, tm.constraints()[1].delay);
}

TEST(FrontendSequential, ModelBytesIdenticalAcrossThreadCounts) {
  std::string reference;
  for (const size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
    flow::Config cfg;
    cfg.cache.enabled = false;
    cfg.threads = threads;
    const flow::Module m = flow::Module::from_bench_string(kS27Bench, cfg);
    std::ostringstream os;
    m.model().save(os);
    if (reference.empty()) {
      reference = os.str();
      EXPECT_EQ(reference.rfind("hstm 2", 0), 0u)
          << "sequential models must carry the extended header";
      EXPECT_NE(reference.find("registers 3"), std::string::npos);
      EXPECT_NE(reference.find("constraints 1"), std::string::npos);
    } else {
      EXPECT_EQ(os.str(), reference)
          << "serialized model must be byte-identical at " << threads
          << " threads";
    }
  }
}

TEST(FrontendSequential, DirectFlopToFlopWiresContributeNoConstraint) {
  // q2's data input is q1's output directly — zero combinational delay,
  // no constraint; the q1 cone still folds one.
  const netlist::Netlist nl = netlist::read_bench_string(
      "INPUT(a)\nOUTPUT(y)\nq1 = DFF(d1)\nq2 = DFF(q1)\n"
      "d1 = NAND(a, q1)\ny = NOT(q2)\n",
      lib(), "shiftish");
  flow::Config cfg;
  cfg.cache.enabled = false;
  const flow::Module m = flow::Module::from_netlist(nl, cfg);
  ASSERT_EQ(m.model().registers().size(), 2u);
  ASSERT_EQ(m.model().constraints().size(), 1u);
}

/// --- hstm serialization compatibility ------------------------------------

TEST(FrontendHstm, CombinationalModelsKeepTheVersion1Header) {
  flow::Config cfg;
  cfg.cache.enabled = false;
  const flow::Module m = flow::Module::from_bench_string(
      "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\n", cfg);
  EXPECT_FALSE(m.model().is_sequential());
  std::ostringstream os;
  m.model().save(os);
  const std::string text = os.str();
  EXPECT_EQ(text.rfind("hstm 1", 0), 0u)
      << "combinational models must stay loadable by version-1 readers";
  EXPECT_EQ(text.find("registers"), std::string::npos);

  std::istringstream in(text);
  const model::TimingModel loaded = model::TimingModel::load(in);
  std::ostringstream os2;
  loaded.save(os2);
  EXPECT_EQ(os2.str(), text);
}

TEST(FrontendHstm, SequentialModelsRoundTripByteIdentically) {
  flow::Config cfg;
  cfg.cache.enabled = false;
  const flow::Module m = flow::Module::from_bench_string(kTwoSegBench, cfg);
  std::ostringstream os;
  m.model().save(os);
  const std::string text = os.str();
  EXPECT_EQ(text.rfind("hstm 2", 0), 0u);

  std::istringstream in(text);
  const model::TimingModel loaded = model::TimingModel::load(in);
  ASSERT_TRUE(loaded.is_sequential());
  ASSERT_EQ(loaded.registers().size(), m.model().registers().size());
  for (size_t i = 0; i < loaded.registers().size(); ++i) {
    EXPECT_EQ(loaded.registers()[i].name, m.model().registers()[i].name);
    EXPECT_EQ(loaded.registers()[i].launch, m.model().registers()[i].launch);
    EXPECT_EQ(loaded.registers()[i].capture, m.model().registers()[i].capture);
    EXPECT_EQ(loaded.registers()[i].init, m.model().registers()[i].init);
  }
  ASSERT_EQ(loaded.constraints().size(), m.model().constraints().size());
  for (size_t i = 0; i < loaded.constraints().size(); ++i) {
    EXPECT_EQ(loaded.constraints()[i].label, m.model().constraints()[i].label);
    EXPECT_EQ(loaded.constraints()[i].delay, m.model().constraints()[i].delay)
        << "hex-float serialization must preserve constraint " << i << " bits";
  }

  std::ostringstream os2;
  loaded.save(os2);
  EXPECT_EQ(os2.str(), text);
}

}  // namespace
}  // namespace hssta::frontend
