/// \file generate.hpp
/// Circuit generators.
///
/// The reproduction runs offline, so the ISCAS85 benchmark netlists are
/// replaced by synthetic circuits with matching published statistics
/// (see DESIGN.md "Substitutions"):
///  * make_random_dag — a seeded levelized DAG generator that hits the
///    requested gate count, primary IO counts, total pin count (the paper's
///    Eo) exactly and the logic depth structurally;
///  * make_array_multiplier — a genuine carry-save array multiplier in
///    NOR/INV logic, the documented structure of c6288 (16 half adders +
///    224 full adders for 16x16);
///  * make_ripple_adder — a small arithmetic circuit for tests/examples.

#pragma once

#include <cstdint>
#include <string>

#include "hssta/library/cell_library.hpp"
#include "hssta/netlist/netlist.hpp"

namespace hssta::netlist {

/// Target statistics for the random DAG generator.
struct RandomDagSpec {
  std::string name = "random";
  size_t num_inputs = 8;
  size_t num_outputs = 4;
  size_t num_gates = 64;
  /// Total gate input pins (the timing graph's edge count). Must lie in
  /// [num_gates, 4 * num_gates]; hit exactly (barring a rare connectivity
  /// repair, which may add a few — see RandomDagStats).
  size_t num_pins = 128;
  /// Logic levels; the generator guarantees at least this depth.
  size_t depth = 10;
  uint64_t seed = 1;
};

/// Realized statistics of a generator run. gates/pins/outputs are what the
/// netlist actually contains; the three repair counters are zero except for
/// structurally over-constrained specs (every deviation from the spec is
/// counted here, never silent).
struct RandomDagStats {
  size_t gates = 0;
  size_t pins = 0;
  size_t outputs = 0;
  /// Pin budget that could not be placed: every gate with arity headroom
  /// already consumes all distinct sources available below its level.
  size_t pin_shortfall = 0;
  /// Pins added beyond the budget while wiring up leftover primary inputs
  /// or absorbing dangling gate outputs (no pin-neutral swap existed).
  size_t pin_overshoot = 0;
  /// Dangling gate outputs kept as extra primary outputs because no deeper
  /// gate could absorb them.
  size_t output_overshoot = 0;
};

/// Generate a connected, acyclic, combinational netlist matching `spec`.
/// Every primary input drives at least one gate; every gate reaches a
/// primary output or is itself a primary output net; no gate has the same
/// fanin net on two pins. Deterministic in seed. When `stats` is non-null
/// the realized statistics are written to it.
[[nodiscard]] Netlist make_random_dag(const RandomDagSpec& spec,
                                      const library::CellLibrary& lib,
                                      RandomDagStats* stats = nullptr);

/// A stack of make_random_dag tiles: tile t draws its sources from tile
/// t-1's outputs instead of primary inputs, so gate count scales linearly
/// in num_tiles (up to millions of gates) while per-tile construction cost
/// stays flat. Depth is num_tiles * tile.depth; the last tile's outputs
/// are the primary outputs.
struct StackedDagSpec {
  std::string name = "stack";
  /// Per-tile shape. tile.num_inputs sets the width of the primary input
  /// interface; deeper tiles consume however many outputs the previous
  /// tile realized.
  RandomDagSpec tile;
  size_t num_tiles = 4;
  uint64_t seed = 1;
};

[[nodiscard]] Netlist make_stacked_dag(const StackedDagSpec& spec,
                                       const library::CellLibrary& lib,
                                       RandomDagStats* stats = nullptr);

/// Carry-save array multiplier (Braun style) over NOR2/INV cells, mirroring
/// the documented structure of ISCAS85 c6288. bits_a x bits_b -> product of
/// bits_a + bits_b bits. For 16x16: 2384 gates, 4736 pins, depth ~90.
[[nodiscard]] Netlist make_array_multiplier(size_t bits_a, size_t bits_b,
                                            const library::CellLibrary& lib,
                                            std::string name = "mult");

/// Ripple-carry adder over XOR/AND/OR cells: inputs a[i], b[i], cin;
/// outputs s[i], cout.
[[nodiscard]] Netlist make_ripple_adder(size_t bits,
                                        const library::CellLibrary& lib,
                                        std::string name = "rca");

}  // namespace hssta::netlist
