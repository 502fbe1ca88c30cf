#include "hssta/incr/scenario.hpp"

#include <cstdio>

#include "hssta/util/error.hpp"
#include "hssta/util/hash.hpp"
#include "hssta/util/timer.hpp"

namespace hssta::incr {

void apply_change(DesignState& state, const Change& change) {
  std::visit(
      [&](const auto& c) {
        using T = std::decay_t<decltype(c)>;
        if constexpr (std::is_same_v<T, ReplaceModule>) {
          state.replace_module(c.inst, c.model);
        } else if constexpr (std::is_same_v<T, MoveInstance>) {
          state.move_instance(c.inst, c.x, c.y);
        } else if constexpr (std::is_same_v<T, RewireConnection>) {
          state.rewire_connection(c.conn, c.from_output, c.to_input);
        } else {
          state.set_parameter_sigma(c.param, c.scale);
        }
      },
      change);
}

namespace {

/// %g formatting (matches the CLI's human-readable output, not the %.17g
/// of the JSON values — descriptions are labels, not data).
std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

}  // namespace

std::string describe_change(const Change& change) {
  return std::visit(
      [](const auto& c) -> std::string {
        using T = std::decay_t<decltype(c)>;
        if constexpr (std::is_same_v<T, ReplaceModule>) {
          return "swap u" + std::to_string(c.inst) + " -> " +
                 (c.model ? c.model->name() : "<null model>");
        } else if constexpr (std::is_same_v<T, MoveInstance>) {
          return "move u" + std::to_string(c.inst) + " to (" + fmt(c.x) +
                 ", " + fmt(c.y) + ")";
        } else if constexpr (std::is_same_v<T, RewireConnection>) {
          return "rewire c" + std::to_string(c.conn) + " to u" +
                 std::to_string(c.from_output.instance) + ".o" +
                 std::to_string(c.from_output.port) + ":u" +
                 std::to_string(c.to_input.instance) + ".i" +
                 std::to_string(c.to_input.port);
        } else {
          return "sigma p" + std::to_string(c.param) + " x" + fmt(c.scale);
        }
      },
      change);
}

std::string describe_changes(std::span<const Change> changes) {
  std::string out;
  for (const Change& c : changes)
    out += (out.empty() ? "" : "; ") + describe_change(c);
  return out;
}

uint64_t scenario_fingerprint(uint64_t base_fingerprint,
                              std::span<const Change> changes) {
  util::Fnv1a h;
  h.u64(base_fingerprint).u64(changes.size());
  for (const Change& change : changes) {
    std::visit(
        [&](const auto& c) {
          using T = std::decay_t<decltype(c)>;
          if constexpr (std::is_same_v<T, ReplaceModule>) {
            h.str("swap").u64(c.inst).u64(c.model ? model_fingerprint(*c.model)
                                                  : 0);
          } else if constexpr (std::is_same_v<T, MoveInstance>) {
            h.str("move").u64(c.inst).f64(c.x).f64(c.y);
          } else if constexpr (std::is_same_v<T, RewireConnection>) {
            h.str("rewire")
                .u64(c.conn)
                .u64(c.from_output.instance)
                .u64(c.from_output.port)
                .u64(c.to_input.instance)
                .u64(c.to_input.port);
          } else {
            h.str("sigma").u64(c.param).f64(c.scale);
          }
        },
        change);
  }
  return h.value();
}

ScenarioRunner::ScenarioRunner(const DesignState& base)
    : base_(&base), base_fp_(state_fingerprint(base)) {
  HSSTA_REQUIRE(!base.pending(),
                "scenario base has pending changes; analyze() it first");
}

std::vector<ScenarioResult> ScenarioRunner::run(
    std::span<const Scenario> scenarios, exec::Executor& ex) const {
  std::vector<ScenarioResult> out(scenarios.size());
  if (scenarios.empty()) return out;
  // Each slot writes only its own result; per-scenario analysis is serial,
  // so the fan-out never nests regions and the results do not depend on
  // the runner's thread count.
  ex.parallel_for(scenarios.size(), [&](size_t i, size_t) {
    const Scenario& sc = scenarios[i];
    ScenarioResult& r = out[i];
    r.label = sc.label;
    r.index = i;
    r.changes = describe_changes(sc.changes);
    r.fingerprint = scenario_fingerprint(base_fp_, sc.changes);
    WallTimer timer;
    try {
      DesignState state(*base_);  // shares the clean prefix by copy
      for (const Change& c : sc.changes) apply_change(state, c);
      r.delay = state.analyze();
      r.stats = state.stats();
    } catch (const std::exception& e) {
      r.error = e.what();
    }
    r.seconds = timer.seconds();
  });
  return out;
}

}  // namespace hssta::incr
