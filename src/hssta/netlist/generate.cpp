#include "hssta/netlist/generate.hpp"

#include <algorithm>
#include <optional>

#include "hssta/stats/rng.hpp"
#include "hssta/util/error.hpp"

namespace hssta::netlist {

namespace {

using library::CellLibrary;
using library::CellType;
using library::GateFunc;
using stats::Rng;

/// Weighted choice of a cell type for a given arity; mixes inverting,
/// non-inverting and parity cells roughly like mapped ISCAS85 logic.
const CellType* pick_cell(const CellLibrary& lib, size_t arity, Rng& rng) {
  const double u = rng.uniform();
  switch (arity) {
    case 1:
      return &lib.get(u < 0.75 ? "INV" : "BUF");
    case 2:
      if (u < 0.28) return &lib.get("NAND2");
      if (u < 0.50) return &lib.get("NOR2");
      if (u < 0.66) return &lib.get("AND2");
      if (u < 0.80) return &lib.get("OR2");
      if (u < 0.92) return &lib.get("XOR2");
      return &lib.get("XNOR2");
    case 3:
      if (u < 0.40) return &lib.get("NAND3");
      if (u < 0.70) return &lib.get("NOR3");
      if (u < 0.85) return &lib.get("AND3");
      return &lib.get("OR3");
    case 4:
      if (u < 0.40) return &lib.get("NAND4");
      if (u < 0.70) return &lib.get("NOR4");
      if (u < 0.85) return &lib.get("AND4");
      return &lib.get("OR4");
    default:
      throw Error("random DAG arity out of range");
  }
}

bool contains(const std::vector<NetId>& nets, NetId x) {
  return std::find(nets.begin(), nets.end(), x) != nets.end();
}

/// Core DAG construction over an explicit source frontier: builds
/// spec.num_gates gates (nets/gates named under `prefix`) drawing fanins
/// from `sources` and from each other, and returns the tile's output nets
/// (spec.num_outputs of them, barring counted repairs). Every source is
/// consumed at least once; spec.num_inputs is ignored in favour of
/// sources.size(). make_random_dag runs one tile over the primary inputs;
/// make_stacked_dag chains tiles through their output frontiers.
std::vector<NetId> build_dag_tile(Netlist& nl, const RandomDagSpec& spec,
                                  const std::vector<NetId>& sources,
                                  const std::string& prefix,
                                  const CellLibrary& lib, Rng& rng,
                                  RandomDagStats* stats) {
  HSSTA_REQUIRE(!sources.empty(), "need at least one source net");
  HSSTA_REQUIRE(spec.num_outputs >= 1, "need at least one output");
  HSSTA_REQUIRE(spec.depth >= 1 && spec.num_gates >= spec.depth,
                "need at least one gate per level");
  HSSTA_REQUIRE(spec.num_outputs <= spec.num_gates,
                "outputs are gate nets; too many requested");
  HSSTA_REQUIRE(spec.num_pins >= spec.num_gates &&
                    spec.num_pins <= 4 * spec.num_gates,
                "pin target must lie in [gates, 4*gates]");

  const std::vector<NetId>& pis = sources;

  // Distribute gates over levels: one per level guaranteed, the rest
  // spread uniformly at random. The last level is capped at num_outputs:
  // its gates are necessarily fanout-free (fanins only come from lower
  // levels), so anything beyond the PO budget could never be absorbed.
  std::vector<size_t> gates_at_level(spec.depth, 1);
  const size_t last_level_cap =
      spec.depth > 1 ? std::max<size_t>(1, spec.num_outputs) : spec.num_gates;
  for (size_t extra = spec.num_gates - spec.depth; extra > 0; --extra) {
    size_t lv = rng.uniform_index(spec.depth);
    if (lv + 1 == spec.depth && gates_at_level[lv] >= last_level_cap &&
        spec.depth > 1)
      lv = rng.uniform_index(spec.depth - 1);
    ++gates_at_level[lv];
  }

  // Create gate skeletons level by level. Each gate has exactly one "chain"
  // fanin from the previous level (or a PI at level 0), which pins the
  // realized depth to spec.depth and keeps everything reachable from PIs.
  struct Proto {
    std::vector<NetId> fanins;
    size_t level = 0;
    NetId output = 0;
  };
  std::vector<Proto> protos(spec.num_gates);
  std::vector<std::vector<size_t>> by_level(spec.depth);
  std::vector<size_t> net_uses(nl.num_nets() + spec.num_gates, 0);

  size_t unused_pi_cursor = 0;  // PIs taken round-robin until all are used
  size_t idx = 0;
  for (size_t lv = 0; lv < spec.depth; ++lv) {
    for (size_t k = 0; k < gates_at_level[lv]; ++k, ++idx) {
      Proto& p = protos[idx];
      p.level = lv;
      p.output = nl.add_net(prefix + "n" + std::to_string(idx));
      NetId chain;
      if (lv == 0) {
        chain = pis[unused_pi_cursor % pis.size()];
        ++unused_pi_cursor;
      } else {
        const auto& prev = by_level[lv - 1];
        chain = protos[prev[rng.uniform_index(prev.size())]].output;
      }
      p.fanins.push_back(chain);
      ++net_uses[chain];
      by_level[lv].push_back(idx);
    }
  }

  // Pool of PIs not yet consumed by the level-0 round-robin.
  std::vector<NetId> unused_pis;
  for (size_t i = unused_pi_cursor; i < pis.size(); ++i)
    unused_pis.push_back(pis[i]);

  // Pick a random already-created net strictly below `level`, with a
  // geometric bias towards nearby levels (spatial/logical locality).
  auto pick_source = [&](size_t level) -> NetId {
    if (level == 0 || rng.uniform() < 0.10)
      return pis[rng.uniform_index(pis.size())];
    size_t back = 1;
    while (back < level && rng.uniform() < 0.55) ++back;
    const size_t lv = level - back;
    const auto& cands = by_level[lv];
    return protos[cands[rng.uniform_index(cands.size())]].output;
  };

  // Distribute the remaining pin budget as extra fanins. Sources prefer
  // (1) unused PIs, then (2) currently fanout-free gate outputs, so the
  // generator converges to full connectivity without post-repair.
  size_t pins_left = spec.num_pins - spec.num_gates;
  // Gates eligible for more pins, per level bucket above 0 gates.
  auto add_extra_pin = [&]() -> bool {
    for (int attempt = 0; attempt < 64; ++attempt) {
      const size_t g = rng.uniform_index(spec.num_gates);
      Proto& p = protos[g];
      if (p.fanins.size() >= 4) continue;
      NetId src;
      bool src_is_unused_pi = false;
      if (!unused_pis.empty()) {
        src = unused_pis.back();  // popped only once actually consumed
        src_is_unused_pi = true;
      } else {
        // Look for a dangling earlier gate first (cheap scan bounded by a
        // few tries), else any earlier source.
        std::optional<NetId> dangling;
        for (int t = 0; t < 8 && !dangling; ++t) {
          if (p.level == 0) break;
          const size_t lv = rng.uniform_index(p.level);
          const auto& cands = by_level[lv];
          const NetId out = protos[cands[rng.uniform_index(cands.size())]].output;
          if (net_uses[out] == 0) dangling = out;
        }
        src = dangling ? *dangling : pick_source(p.level);
      }
      // Never place the same net on two pins of one gate.
      if (contains(p.fanins, src)) continue;
      if (src_is_unused_pi) unused_pis.pop_back();
      p.fanins.push_back(src);
      ++net_uses[src];
      return true;
    }
    return false;
  };
  while (pins_left > 0 && add_extra_pin()) --pins_left;

  // The random pass gives up after bounded attempts; place whatever budget
  // is left deterministically — scan gates in index order and give each
  // one fanins from distinct sources it does not already consume. Only a
  // structurally saturated spec leaves a (counted) shortfall.
  if (pins_left > 0) {
    auto try_add = [&](Proto& p, NetId src) -> bool {
      if (contains(p.fanins, src)) return false;
      p.fanins.push_back(src);
      ++net_uses[src];
      --pins_left;
      return true;
    };
    for (size_t g = 0; g < spec.num_gates && pins_left > 0; ++g) {
      Proto& p = protos[g];
      while (p.fanins.size() < 4 && pins_left > 0) {
        bool added = false;
        // Unused sources first: they must be consumed eventually anyway.
        for (size_t u = 0; u < unused_pis.size() && !added; ++u) {
          if (try_add(p, unused_pis[u])) {
            unused_pis.erase(unused_pis.begin() + ptrdiff_t(u));
            added = true;
          }
        }
        for (size_t s = 0; s < pis.size() && !added; ++s)
          added = try_add(p, pis[s]);
        for (size_t lv = 0; lv < p.level && !added; ++lv)
          for (size_t c : by_level[lv])
            if (try_add(p, protos[c].output)) {
              added = true;
              break;
            }
        if (!added) break;  // gate saturated on distinct sources
      }
    }
    if (stats) stats->pin_shortfall += pins_left;
  }

  // Any source still unused: swap it into a non-chain fanin whose current
  // source keeps at least one other use (pin count unchanged) — random
  // probes first, then a deterministic sweep so nothing is left to chance.
  for (NetId pi : unused_pis) {
    bool placed = false;
    auto try_swap = [&](Proto& p) -> bool {
      if (contains(p.fanins, pi)) return false;
      for (size_t f = 1; f < p.fanins.size(); ++f) {
        if (net_uses[p.fanins[f]] < 2) continue;
        --net_uses[p.fanins[f]];
        p.fanins[f] = pi;
        ++net_uses[pi];
        return true;
      }
      return false;
    };
    for (int attempt = 0; attempt < 256 && !placed; ++attempt)
      placed = try_swap(protos[rng.uniform_index(spec.num_gates)]);
    for (size_t g = 0; g < spec.num_gates && !placed; ++g)
      placed = try_swap(protos[g]);
    // Last resort: an extra pin on any gate with arity headroom (budget
    // overshoot, counted).
    for (size_t g = 0; g < spec.num_gates && !placed; ++g) {
      Proto& p = protos[g];
      if (p.fanins.size() < 4 && !contains(p.fanins, pi)) {
        p.fanins.push_back(pi);
        ++net_uses[pi];
        if (stats) ++stats->pin_overshoot;
        placed = true;
      }
    }
    HSSTA_ASSERT(placed, "could not connect a primary input");
  }

  // Primary outputs: fanout-free gate outputs, deepest first. Excess
  // dangling outputs are swapped into deeper gates (pin-neutral); missing
  // outputs are filled with the deepest non-dangling nets.
  std::vector<size_t> dangling;
  for (size_t g = 0; g < spec.num_gates; ++g)
    if (net_uses[protos[g].output] == 0) dangling.push_back(g);
  std::sort(dangling.begin(), dangling.end(), [&](size_t a, size_t b) {
    return protos[a].level > protos[b].level;
  });

  std::vector<NetId> pos;
  for (size_t i = 0; i < dangling.size() && pos.size() < spec.num_outputs; ++i)
    pos.push_back(protos[dangling[i]].output);

  for (size_t i = spec.num_outputs; i < dangling.size(); ++i) {
    Proto& d = protos[dangling[i]];
    bool placed = false;
    auto try_swap = [&](Proto& p) -> bool {
      if (p.level <= d.level || contains(p.fanins, d.output)) return false;
      for (size_t f = 1; f < p.fanins.size(); ++f) {
        if (net_uses[p.fanins[f]] < 2) continue;
        --net_uses[p.fanins[f]];
        p.fanins[f] = d.output;
        ++net_uses[d.output];
        return true;
      }
      return false;
    };
    for (int attempt = 0; attempt < 256 && !placed; ++attempt)
      placed = try_swap(protos[rng.uniform_index(spec.num_gates)]);
    for (size_t g = 0; g < spec.num_gates && !placed; ++g)
      placed = try_swap(protos[g]);
    // Extra pin on a strictly deeper gate (budget overshoot, counted).
    for (size_t g = 0; g < spec.num_gates && !placed; ++g) {
      Proto& p = protos[g];
      if (p.level > d.level && p.fanins.size() < 4 &&
          !contains(p.fanins, d.output)) {
        p.fanins.push_back(d.output);
        ++net_uses[d.output];
        if (stats) ++stats->pin_overshoot;
        placed = true;
      }
    }
    if (!placed) {
      // Keep it observable as an extra PO (counted, never silent).
      pos.push_back(d.output);
      if (stats) ++stats->output_overshoot;
    }
  }
  // Fill up the PO list with the deepest remaining nets.
  if (pos.size() < spec.num_outputs) {
    std::vector<size_t> order(spec.num_gates);
    for (size_t g = 0; g < spec.num_gates; ++g) order[g] = g;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return protos[a].level > protos[b].level;
    });
    for (size_t g : order) {
      if (pos.size() >= spec.num_outputs) break;
      const NetId out = protos[g].output;
      if (std::find(pos.begin(), pos.end(), out) == pos.end())
        pos.push_back(out);
    }
  }

  // Materialize gates with cell types matching their final arity.
  for (size_t g = 0; g < spec.num_gates; ++g) {
    Proto& p = protos[g];
    const CellType* type = pick_cell(lib, p.fanins.size(), rng);
    nl.add_gate(prefix + "g" + std::to_string(g), type, p.fanins, p.output);
  }

  if (stats) {
    stats->gates += spec.num_gates;
    for (const Proto& p : protos) stats->pins += p.fanins.size();
    stats->outputs += pos.size();
  }
  return pos;
}

}  // namespace

Netlist make_random_dag(const RandomDagSpec& spec, const CellLibrary& lib,
                        RandomDagStats* stats) {
  HSSTA_REQUIRE(spec.num_inputs >= 1, "need at least one primary input");
  Rng rng(spec.seed);
  Netlist nl(spec.name);
  std::vector<NetId> pis;
  pis.reserve(spec.num_inputs);
  for (size_t i = 0; i < spec.num_inputs; ++i) {
    const std::string index = std::to_string(i);
    pis.push_back(nl.add_primary_input("in" + index));
  }
  if (stats) *stats = {};
  const std::vector<NetId> pos =
      build_dag_tile(nl, spec, pis, "", lib, rng, stats);
  for (NetId po : pos) nl.mark_primary_output(po);
  nl.validate();
  return nl;
}

Netlist make_stacked_dag(const StackedDagSpec& spec, const CellLibrary& lib,
                         RandomDagStats* stats) {
  HSSTA_REQUIRE(spec.num_tiles >= 1, "need at least one tile");
  HSSTA_REQUIRE(spec.tile.num_inputs >= 1, "need at least one primary input");
  Rng rng(spec.seed);
  Netlist nl(spec.name);
  if (stats) *stats = {};
  std::vector<NetId> frontier;
  frontier.reserve(spec.tile.num_inputs);
  for (size_t i = 0; i < spec.tile.num_inputs; ++i) {
    const std::string index = std::to_string(i);
    frontier.push_back(nl.add_primary_input("in" + index));
  }
  for (size_t t = 0; t < spec.num_tiles; ++t) {
    const std::string tile = std::to_string(t);
    frontier = build_dag_tile(nl, spec.tile, frontier, "t" + tile + "_", lib,
                              rng, stats);
  }
  for (NetId po : frontier) nl.mark_primary_output(po);
  nl.validate();
  return nl;
}

namespace {

/// Helper that tracks gate emission for the arithmetic generators.
class Builder {
 public:
  Builder(Netlist& nl, const CellLibrary& lib) : nl_(nl), lib_(lib) {}

  NetId emit(const char* cell, std::initializer_list<NetId> ins,
             const std::string& out_name) {
    const NetId out = nl_.add_net(out_name);
    nl_.add_gate(out_name + "_g", &lib_.get(cell),
                 std::vector<NetId>(ins), out);
    return out;
  }

 private:
  Netlist& nl_;
  const CellLibrary& lib_;
};

}  // namespace

Netlist make_array_multiplier(size_t bits_a, size_t bits_b,
                              const CellLibrary& lib, std::string name) {
  HSSTA_REQUIRE(bits_a >= 2 && bits_b >= 2, "multiplier needs >= 2x2 bits");
  Netlist nl(std::move(name));
  Builder bb(nl, lib);

  std::vector<NetId> a(bits_a), b(bits_b);
  for (size_t i = 0; i < bits_a; ++i) {
    const std::string bit = std::to_string(i);
    a[i] = nl.add_primary_input("a" + bit);
  }
  for (size_t j = 0; j < bits_b; ++j) {
    const std::string bit = std::to_string(j);
    b[j] = nl.add_primary_input("b" + bit);
  }

  // Shared operand inverters; partial products are NOR2(~a, ~b) = a & b,
  // matching the NOR-only structure of c6288.
  std::vector<NetId> na(bits_a), nb(bits_b);
  for (size_t i = 0; i < bits_a; ++i) {
    const std::string bit = std::to_string(i);
    na[i] = bb.emit("INV", {a[i]}, "na" + bit);
  }
  for (size_t j = 0; j < bits_b; ++j) {
    const std::string bit = std::to_string(j);
    nb[j] = bb.emit("INV", {b[j]}, "nb" + bit);
  }

  auto pp = [&](size_t i, size_t j) {
    const std::string row = std::to_string(i);
    const std::string col = std::to_string(j);
    return bb.emit("NOR2", {na[i], nb[j]}, "p" + row + "_" + col);
  };

  // NOR-only half adder (5 gates): s = x ^ y, c = x & y.
  auto half_adder = [&](NetId x, NetId y, const std::string& tag) {
    const NetId ix = bb.emit("INV", {x}, tag + "_ix");
    const NetId iy = bb.emit("INV", {y}, tag + "_iy");
    const NetId c = bb.emit("NOR2", {ix, iy}, tag + "_c");
    const NetId n1 = bb.emit("NOR2", {x, y}, tag + "_n1");
    const NetId s = bb.emit("NOR2", {n1, c}, tag + "_s");
    return std::pair{s, c};
  };

  // Classic 9-NOR full adder: two XNOR ladders for the sum plus the
  // majority carry cout = NOR(n1, m1).
  auto full_adder = [&](NetId x, NetId y, NetId cin, const std::string& tag) {
    const NetId n1 = bb.emit("NOR2", {x, y}, tag + "_n1");
    const NetId n2 = bb.emit("NOR2", {x, n1}, tag + "_n2");
    const NetId n3 = bb.emit("NOR2", {y, n1}, tag + "_n3");
    const NetId x1 = bb.emit("NOR2", {n2, n3}, tag + "_x1");  // XNOR(x, y)
    const NetId m1 = bb.emit("NOR2", {x1, cin}, tag + "_m1");
    const NetId m2 = bb.emit("NOR2", {x1, m1}, tag + "_m2");
    const NetId m3 = bb.emit("NOR2", {cin, m1}, tag + "_m3");
    const NetId s = bb.emit("NOR2", {m2, m3}, tag + "_s");  // x ^ y ^ cin
    const NetId c = bb.emit("NOR2", {n1, m1}, tag + "_c");  // majority
    return std::pair{s, c};
  };

  // Row-by-row carry-save accumulation: row i adds partial products
  // p[i][*] into the running sum at offset i.
  constexpr NetId kNone = std::numeric_limits<NetId>::max();
  std::vector<NetId> acc(bits_a + bits_b, kNone);
  for (size_t j = 0; j < bits_b; ++j) acc[j] = pp(0, j);

  for (size_t i = 1; i < bits_a; ++i) {
    NetId carry = kNone;
    for (size_t j = 0; j < bits_b; ++j) {
      const size_t pos = i + j;
      const NetId p = pp(i, j);
      const std::string row = std::to_string(i);
      const std::string col = std::to_string(j);
      const std::string tag = "r" + row + "c" + col;
      std::vector<NetId> addends;
      if (acc[pos] != kNone) addends.push_back(acc[pos]);
      addends.push_back(p);
      if (carry != kNone) addends.push_back(carry);
      if (addends.size() == 1) {
        acc[pos] = addends[0];
        carry = kNone;
      } else if (addends.size() == 2) {
        auto [s, c] = half_adder(addends[0], addends[1], tag);
        acc[pos] = s;
        carry = c;
      } else {
        auto [s, c] = full_adder(addends[0], addends[1], addends[2], tag);
        acc[pos] = s;
        carry = c;
      }
    }
    if (carry != kNone) {
      const size_t pos = i + bits_b;
      HSSTA_ASSERT(acc[pos] == kNone, "carry column already occupied");
      acc[pos] = carry;
    }
  }

  for (size_t k = 0; k < acc.size(); ++k) {
    HSSTA_ASSERT(acc[k] != kNone, "product bit never produced");
    nl.mark_primary_output(acc[k]);
  }
  nl.validate();
  return nl;
}

Netlist make_ripple_adder(size_t bits, const CellLibrary& lib,
                          std::string name) {
  HSSTA_REQUIRE(bits >= 1, "adder needs at least one bit");
  Netlist nl(std::move(name));
  Builder bb(nl, lib);

  std::vector<NetId> a(bits), b(bits);
  for (size_t i = 0; i < bits; ++i) {
    const std::string bit = std::to_string(i);
    a[i] = nl.add_primary_input("a" + bit);
  }
  for (size_t i = 0; i < bits; ++i) {
    const std::string bit = std::to_string(i);
    b[i] = nl.add_primary_input("b" + bit);
  }
  NetId carry = nl.add_primary_input("cin");

  for (size_t i = 0; i < bits; ++i) {
    const std::string bit = std::to_string(i);
    const std::string tag = "fa" + bit;
    const NetId axb = bb.emit("XOR2", {a[i], b[i]}, tag + "_axb");
    const NetId s = bb.emit("XOR2", {axb, carry}, tag + "_s");
    const NetId and1 = bb.emit("AND2", {a[i], b[i]}, tag + "_and1");
    const NetId and2 = bb.emit("AND2", {carry, axb}, tag + "_and2");
    carry = bb.emit("OR2", {and1, and2}, tag + "_cout");
    nl.mark_primary_output(s);
  }
  nl.mark_primary_output(carry);
  nl.validate();
  return nl;
}

}  // namespace hssta::netlist
