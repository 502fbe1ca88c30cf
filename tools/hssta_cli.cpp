// hssta_cli — command-line front end for the flow:: pipeline API.
//
//   hssta_cli report  <in.bench|.blif>        module SSTA report
//   hssta_cli extract <in.bench|.blif> <out.hstm>  gray-box model extraction
//   hssta_cli mc      <in.bench|.blif>        module Monte Carlo
//   hssta_cli hier    <m1> <m2> [...]         design-level analysis of a
//                                             pipeline of modules; each <m>
//                                             is a netlist (.bench or
//                                             BLIF, detected by content;
//                                             model extracted on the fly)
//                                             or a pre-extracted .hstm
//                                             model
//   hssta_cli eco     <m1> <m2> [...]         one ECO (module swap, move,
//                                             rewire, sigma scaling) on the
//                                             chained design: full vs
//                                             incremental re-analysis
//   hssta_cli sweep   <m1> <m2> [...]         batched what-if scenarios
//                                             over the chained design via
//                                             the incremental engine
//   hssta_cli check   <m1> [...]              static design lint
//                                             (hssta::check): structural /
//                                             numeric / sequential /
//                                             hierarchy rules, no timing
//                                             run; exit code = worst
//                                             severity
//
// hier/eco/sweep accept --json for machine-readable output (schema pinned
// by tests/report_test.cpp). All commands accept --config <file>
// (flow::Config key=value text); the defaults are the paper's Section VI
// setup (90nm library, Leff/Tox/Vth, 0.92-neighbour correlation, < 100
// cells per grid, delta = 0.05). All commands also accept --threads N
// (0 = all hardware threads) to fan the compute layer out across an
// exec::ThreadPoolExecutor, and --cache-dir D to persist extracted .hstm
// models across runs (keyed by netlist/config fingerprint; a hit loads a
// byte-identical model, so neither knob changes any result bit —
// swapped-in ECO variants consult the same cache).

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "hssta/campaign/campaign.hpp"
#include "hssta/check/check.hpp"
#include "hssta/exec/executor.hpp"
#include "hssta/flow/chain.hpp"
#include "hssta/flow/detect.hpp"
#include "hssta/flow/flow.hpp"
#include "hssta/flow/report.hpp"
#include "hssta/frontend/blif.hpp"
#include "hssta/incr/design_state.hpp"
#include "hssta/incr/scenario.hpp"
#include "hssta/model/timing_model.hpp"
#include "hssta/netlist/bench_io.hpp"
#include "hssta/netlist/iscas.hpp"
#include "hssta/serve/client.hpp"
#include "hssta/timing/sta.hpp"
#include "hssta/util/argparse.hpp"
#include "hssta/util/error.hpp"
#include "hssta/util/json.hpp"
#include "hssta/util/strings.hpp"
#include "hssta/util/timer.hpp"
#include "hssta/util/version.hpp"

namespace {

using namespace hssta;

/// Flags shared by every subcommand.
struct Common {
  static constexpr uint64_t kThreadsUnset = UINT64_MAX;

  std::string config_file;
  std::string cache_dir;
  uint64_t threads = kThreadsUnset;

  void register_flags(util::ArgParser& p) {
    p.option("--config", &config_file, "file",
             "flow::Config key=value file");
    p.option("--threads", &threads, "N",
             "worker threads, 0 = all hardware threads (default: config)");
    p.option("--cache-dir", &cache_dir, "dir",
             "persistent .hstm model cache directory "
             "(default: config / HSSTA_CACHE_DIR)");
  }

  [[nodiscard]] flow::Config load() const {
    flow::Config cfg = config_file.empty()
                           ? flow::Config{}
                           : flow::Config::from_file(config_file);
    if (threads != kThreadsUnset) cfg.threads = threads;
    (void)exec::effective_threads(cfg.threads);  // reject above the cap now
    if (!cache_dir.empty()) {
      cfg.cache.dir = cache_dir;
      cfg.cache.enabled = true;
    }
    return cfg;
  }
};

void print_distribution(const char* label, const timing::CanonicalForm& d) {
  std::printf("%s: mean %.4f ns, sigma %.4f ns\n", label, d.nominal(),
              d.sigma());
  for (double q : {0.90, 0.99, 0.9987})
    std::printf("  %.2f%% quantile: %.4f ns\n", 100 * q, d.quantile(q));
}

int cmd_report(int argc, const char* const* argv) {
  Common common;
  uint64_t paths = 5;
  std::string in;
  util::ArgParser p("hssta_cli report", "module-level SSTA report");
  p.positional("in.bench|.blif", &in, "input netlist (.bench or BLIF, by content)");
  p.option("--paths", &paths, "K", "critical paths to report (default 5)");
  common.register_flags(p);
  if (!p.parse(argc, argv, 2)) return 0;

  const flow::Module m = flow::Module::from_file(in, common.load());
  std::printf("%s: %zu gates, %zu inputs, %zu outputs, depth %zu\n",
              m.name().c_str(), m.netlist().num_gates(),
              m.netlist().primary_inputs().size(),
              m.netlist().primary_outputs().size(), m.netlist().depth());
  std::printf("variation: %zu grids, %zu variables\n\n",
              m.variation().partition.num_grids(), m.variation().space->dim());

  print_distribution("delay", m.delay());
  std::printf("nominal STA %.4f ns, 3-sigma corner %.4f ns\n\n",
              timing::corner_delay(m.graph(), 0.0),
              timing::corner_delay(m.graph(), 3.0));

  const auto& top = m.critical_paths(paths);
  std::printf("top %zu critical paths:\n", top.size());
  for (const auto& path : top)
    std::printf("  P=%5.1f%%  %.4f ns (+/- %.4f)  %s\n",
                100.0 * path.criticality, path.delay.nominal(),
                path.delay.sigma(), path.format(m.graph()).c_str());
  return 0;
}

int cmd_extract(int argc, const char* const* argv) {
  Common common;
  double delta = -1.0;
  std::string in, out;
  util::ArgParser p("hssta_cli extract", "gray-box timing model extraction");
  p.positional("in.bench|.blif", &in, "input netlist (.bench or BLIF, by content)");
  p.positional("out.hstm", &out, "output model file");
  p.option("--delta", &delta, "X",
           "criticality threshold (default: config, 0.05)");
  common.register_flags(p);
  if (!p.parse(argc, argv, 2)) return 0;

  flow::Config cfg = common.load();
  if (delta >= 0.0) cfg.extract.criticality_threshold = delta;
  const flow::Module m = flow::Module::from_file(in, cfg);
  const model::Extraction& ex = m.extract_model();
  ex.model.save_file(out);
  if (ex.stats.from_cache)
    std::printf("%s: %zu vertices, %zu edges (model cache hit, %.3f s)\n"
                "model written to %s\n",
                m.name().c_str(), ex.stats.model_vertices,
                ex.stats.model_edges, ex.stats.seconds, out.c_str());
  else
    std::printf(
        "%s: %zu -> %zu edges (%.0f%%), %zu -> %zu vertices (%.0f%%), "
        "%.3f s\nmodel written to %s\n",
        m.name().c_str(), ex.stats.original_edges, ex.stats.model_edges,
        100.0 * ex.stats.edge_ratio(), ex.stats.original_vertices,
        ex.stats.model_vertices, 100.0 * ex.stats.vertex_ratio(),
        ex.stats.seconds, out.c_str());
  return 0;
}

int cmd_mc(int argc, const char* const* argv) {
  Common common;
  uint64_t samples = 0, seed = 0;
  std::string in;
  util::ArgParser p("hssta_cli mc", "module Monte Carlo reference");
  p.positional("in.bench|.blif", &in, "input netlist (.bench or BLIF, by content)");
  p.option("--samples", &samples, "N", "sample count (default: config)");
  p.option("--seed", &seed, "S", "RNG seed (default: config)");
  common.register_flags(p);
  if (!p.parse(argc, argv, 2)) return 0;

  flow::Config cfg = common.load();
  if (samples) cfg.mc.samples = samples;
  if (seed) cfg.mc.seed = seed;
  const flow::Module m = flow::Module::from_file(in, cfg);
  WallTimer timer;
  const stats::EmpiricalDistribution& d = m.monte_carlo();
  std::printf(
      "%s Monte Carlo (%zu samples, seed %llu, %.2f s):\n"
      "  mean %.4f ns, sigma %.4f ns, min %.4f, max %.4f\n"
      "  quantiles: 90%% %.4f | 99%% %.4f | 99.87%% %.4f\n",
      m.name().c_str(), cfg.mc.samples,
      static_cast<unsigned long long>(cfg.mc.seed), timer.seconds(), d.mean(),
      d.stddev(), d.min(), d.max(), d.quantile(0.90), d.quantile(0.99),
      d.quantile(0.9987));
  return 0;
}

/// Chain assembly lives in flow/chain.hpp (shared with the serve layer so
/// a served design is built by exactly this code); the CLI wrapper only
/// adds the per-instance progress printing.
flow::Design build_chain(const std::vector<std::string>& files,
                         const flow::Config& cfg, bool verbose,
                         const flow::ChainOverrides& overrides = {}) {
  flow::Design design =
      flow::build_chain_design("chain", files, cfg, overrides);
  if (verbose)
    for (size_t i = 0; i < design.num_instances(); ++i)
      std::printf("instance %zu '%s': %s (%zu in, %zu out, die %.1f x %.1f "
                  "um)\n",
                  i, design.instance_name(i).c_str(), files[i].c_str(),
                  design.num_inputs(i), design.num_outputs(i),
                  design.instance_model(i).die().width,
                  design.instance_model(i).die().height);
  return design;
}

int cmd_hier(int argc, const char* const* argv) {
  Common common;
  bool run_mc = false;
  bool global_only = false;
  bool json = false;
  uint64_t samples = 0, seed = 0;
  std::vector<std::string> files;
  util::ArgParser p("hssta_cli hier",
                    "design-level hierarchical SSTA of chained modules");
  p.positional_rest("module.bench|.blif|.hstm", &files,
                    "module netlists or model files (>= 2)", 2);
  p.flag("--mc", &run_mc,
         "cross-check with flattened Monte Carlo (.bench modules only)");
  p.flag("--global-only", &global_only,
         "baseline correlation mode instead of variable replacement");
  p.flag("--json", &json, "machine-readable JSON report on stdout");
  p.option("--samples", &samples, "N", "MC sample count (default: config)");
  p.option("--seed", &seed, "S", "MC RNG seed (default: config)");
  common.register_flags(p);
  if (!p.parse(argc, argv, 2)) return 0;

  flow::Config cfg = common.load();
  if (samples) cfg.mc.samples = samples;
  if (seed) cfg.mc.seed = seed;
  if (global_only) cfg.hier.mode = hier::CorrelationMode::kGlobalOnly;

  const flow::Design design = build_chain(files, cfg, /*verbose=*/!json);
  const hier::HierResult& r = design.analyze();
  if (json) {
    std::printf("%s\n", flow::hier_report_json(design, r).c_str());
    return 0;
  }
  std::printf("\ndesign: %zu instances, %zu top-level nets, %s correlation, "
              "%zu thread%s (built %.3f s, analyzed %.3f s)\n",
              design.num_instances(), design.hier().connections().size(),
              global_only ? "global-only" : "replacement",
              exec::effective_threads(cfg.threads),
              exec::effective_threads(cfg.threads) == 1 ? "" : "s",
              r.build_seconds, r.analysis_seconds);
  if (cfg.cache.active()) {
    const cache::CacheStats cs = design.cache_stats();
    std::printf("model cache: %llu hit%s, %llu miss%s, %llu store%s, "
                "%llu evicted (%s)\n",
                static_cast<unsigned long long>(cs.hits),
                cs.hits == 1 ? "" : "s",
                static_cast<unsigned long long>(cs.misses),
                cs.misses == 1 ? "" : "es",
                static_cast<unsigned long long>(cs.stores),
                cs.stores == 1 ? "" : "s",
                static_cast<unsigned long long>(cs.evictions),
                cfg.cache.dir.c_str());
  }
  print_distribution("stitched design delay", r.delay());

  if (run_mc && !design.can_monte_carlo()) {
    std::printf(
        "\nskipping Monte Carlo: an instance was loaded from a model file, "
        "so the design cannot be flattened (needs .bench modules)\n");
    run_mc = false;
  }
  if (run_mc) {
    WallTimer timer;
    const stats::EmpiricalDistribution& d = design.monte_carlo();
    std::printf(
        "\nflattened Monte Carlo (%zu samples, %.2f s): mean %.4f ns, "
        "sigma %.4f ns\n  SSTA vs MC: mean %+.2f%%, sigma %+.2f%%\n",
        cfg.mc.samples, timer.seconds(), d.mean(), d.stddev(),
        100.0 * (r.delay().nominal() / d.mean() - 1.0),
        100.0 * (r.delay().sigma() / d.stddev() - 1.0));
  }
  return 0;
}

/// Parse "I=rest" (e.g. --swap 1=variant.bench); returns {index, rest}.
std::pair<size_t, std::string> parse_indexed(const std::string& flag,
                                             const std::string& spec) {
  const size_t eq = spec.find('=');
  if (eq == std::string::npos)
    throw Error(flag + ": expected I=..., got: " + spec);
  const size_t idx = parse_count(flag + " index", spec.substr(0, eq));
  return {static_cast<size_t>(idx), spec.substr(eq + 1)};
}

/// Parse "FI.FP:TI.TP" into a connection.
hier::Connection parse_endpoints(const std::string& flag,
                                 const std::string& spec) {
  const auto halves = split(spec, ':');
  if (halves.size() != 2)
    throw Error(flag + ": expected FI.FP:TI.TP, got: " + spec);
  auto parse_ref = [&](const std::string& s) {
    const auto parts = split(s, '.');
    if (parts.size() != 2)
      throw Error(flag + ": expected INST.PORT, got: " + s);
    return hier::PortRef{
        static_cast<size_t>(parse_count(flag + " instance", parts[0])),
        static_cast<size_t>(parse_count(flag + " port", parts[1]))};
  };
  return hier::Connection{parse_ref(halves[0]), parse_ref(halves[1])};
}

/// eco: one engineering change order on the chained design, analyzed both
/// ways — a from-scratch rebuild and the incremental engine — with the
/// delays compared bit for bit and both wall times reported.
int cmd_eco(int argc, const char* const* argv) {
  Common common;
  bool json = false;
  std::string swap, move, rewire, sigma;
  std::vector<std::string> files;
  util::ArgParser p("hssta_cli eco",
                    "incremental ECO re-analysis of a chained design");
  p.positional_rest("module.bench|.blif|.hstm", &files,
                    "module netlists or model files (>= 2)", 2);
  p.option("--swap", &swap, "I=FILE",
           "swap instance I's model for FILE (.bench or .hstm)");
  p.option("--move", &move, "I=X,Y", "re-place instance I at (X, Y)");
  p.option("--rewire", &rewire, "C=FI.FP:TI.TP",
           "re-route chain connection C from output FP of instance FI to "
           "input TP of instance TI");
  p.option("--sigma", &sigma, "P=S",
           "scale parameter P's correlated sigma by S");
  p.flag("--json", &json, "machine-readable JSON report on stdout");
  common.register_flags(p);
  if (!p.parse(argc, argv, 2)) return 0;

  flow::Config cfg = common.load();
  if (swap.empty() && move.empty() && rewire.empty() && sigma.empty())
    throw Error("eco: need at least one of --swap/--move/--rewire/--sigma");

  // Parse the change into (a) incremental-engine changes and (b) the
  // overrides/config of the from-scratch reference build.
  std::vector<incr::Change> changes;
  flow::ChainOverrides overrides;
  flow::Config full_cfg = cfg;
  std::string desc;
  auto describe = [&](const std::string& what) {
    desc += (desc.empty() ? "" : "; ") + what;
  };
  if (!swap.empty()) {
    const auto [idx, file] = parse_indexed("--swap", swap);
    const auto variant = flow::load_variant_model(file, cfg);
    changes.push_back(incr::ReplaceModule{idx, variant});
    overrides.models[idx] = variant;
    describe("swap u" + std::to_string(idx) + " -> " + file);
  }
  if (!move.empty()) {
    const auto [idx, xy] = parse_indexed("--move", move);
    const auto parts = split(xy, ',');
    if (parts.size() != 2)
      throw Error("--move: expected I=X,Y, got: " + move);
    const double mx = parse_number("--move x", parts[0]);
    const double my = parse_number("--move y", parts[1]);
    changes.push_back(incr::MoveInstance{idx, mx, my});
    overrides.origins[idx] = placement::Point{mx, my};
    describe("move u" + std::to_string(idx) + " to (" + parts[0] + ", " +
             parts[1] + ")");
  }
  if (!rewire.empty()) {
    const auto [idx, spec] = parse_indexed("--rewire", rewire);
    const hier::Connection cn = parse_endpoints("--rewire", spec);
    changes.push_back(
        incr::RewireConnection{idx, cn.from_output, cn.to_input});
    overrides.rewires[idx] = cn;
    describe("rewire connection " + std::to_string(idx));
  }
  if (!sigma.empty()) {
    const auto [idx, s] = parse_indexed("--sigma", sigma);
    const double scale = parse_number("--sigma scale", s);
    if (idx >= cfg.parameters.size())
      throw Error("--sigma: parameter index out of range");
    changes.push_back(incr::SigmaScale{idx, scale});
    full_cfg.hier.param_sigma_scale.assign(cfg.parameters.size(), 1.0);
    full_cfg.hier.param_sigma_scale[idx] = scale;
    describe("scale sigma(" + cfg.parameters.at(idx).name + ") by " + s);
  }

  // Base design + incremental engine (models extract once, shared).
  const flow::Design base = build_chain(files, cfg, /*verbose=*/!json);
  incr::DesignState& st = base.incremental();

  // The scenario identity hashes the *base* design + change list, so it
  // must be taken before the changes are applied below.
  const uint64_t scenario_fp =
      incr::scenario_fingerprint(incr::state_fingerprint(st), changes);

  // From-scratch analysis of the changed design (timed: stitch +
  // propagate; model extraction is shared and excluded on both sides). The
  // changed chain reuses the base's models; a swapped instance keeps its
  // variant.
  for (size_t i = 0; i < st.inputs().instances.size(); ++i)
    overrides.models.try_emplace(i, st.inputs().instances[i].model);
  const flow::Design changed =
      build_chain(files, full_cfg, /*verbose=*/false, overrides);
  const hier::HierResult& full = changed.analyze();

  // Incremental re-analysis of the same change.
  for (const incr::Change& c : changes) incr::apply_change(st, c);
  const timing::CanonicalForm& incr_delay = st.analyze();

  flow::EcoReport report;
  report.change = desc;
  report.fingerprint = scenario_fp;
  report.full_delay = full.delay();
  report.full_seconds = full.build_seconds + full.analysis_seconds;
  report.incremental_delay = incr_delay;
  report.incremental_seconds = st.stats().last_seconds;
  report.stats = st.stats();
  report.identical = incr_delay == full.delay();

  if (json) {
    std::printf("%s\n", flow::eco_report_json(base, report).c_str());
  } else {
    std::printf("\nECO: %s\n", desc.c_str());
    print_distribution("full re-analysis", report.full_delay);
    std::printf("  stitched + analyzed in %.4f s\n\n", report.full_seconds);
    print_distribution("incremental re-analysis", report.incremental_delay);
    std::printf(
        "  re-analyzed in %.4f s (%.1fx; %llu/%llu vertices recomputed, "
        "%llu instance%s restitched, %llu full rebuild%s)\n",
        report.incremental_seconds,
        report.incremental_seconds > 0.0
            ? report.full_seconds / report.incremental_seconds
            : 0.0,
        static_cast<unsigned long long>(report.stats.vertices_recomputed),
        static_cast<unsigned long long>(report.stats.vertices_live),
        static_cast<unsigned long long>(report.stats.instances_restitched),
        report.stats.instances_restitched == 1 ? "" : "s",
        static_cast<unsigned long long>(report.stats.full_builds - 1),
        report.stats.full_builds - 1 == 1 ? "" : "s");
    std::printf("results bit-identical: %s\n",
                report.identical ? "yes" : "NO");
  }
  return report.identical ? 0 : 1;
}

/// sweep: batched what-if scenarios over the chained design, fanned across
/// the executor by the incremental engine's ScenarioRunner.
int cmd_sweep(int argc, const char* const* argv) {
  Common common;
  bool json = false;
  std::string swap_each, move_each, sigma_each, rewire;
  std::vector<std::string> files;
  util::ArgParser p("hssta_cli sweep",
                    "batched what-if scenario sweep of a chained design");
  p.positional_rest("module.bench|.blif|.hstm", &files,
                    "module netlists or model files (>= 2)", 2);
  p.option("--swap-each", &swap_each, "FILE",
           "one scenario per instance: swap it for FILE's model");
  p.option("--move-each", &move_each, "DX,DY",
           "one scenario per instance: shift its origin by (DX, DY)");
  p.option("--sigma-each", &sigma_each, "S",
           "one scenario per process parameter: scale its sigma by S");
  p.option("--rewire", &rewire, "C=FI.FP:TI.TP",
           "one scenario re-routing chain connection C");
  p.flag("--json", &json, "machine-readable JSON report on stdout");
  common.register_flags(p);
  if (!p.parse(argc, argv, 2)) return 0;

  flow::Config cfg = common.load();
  if (swap_each.empty() && move_each.empty() && sigma_each.empty() &&
      rewire.empty())
    throw Error(
        "sweep: need at least one of --swap-each/--move-each/--sigma-each/"
        "--rewire");

  const flow::Design design = build_chain(files, cfg, /*verbose=*/!json);
  const incr::DesignState& st = design.incremental();

  std::vector<incr::Scenario> scenarios;
  if (!swap_each.empty()) {
    const auto variant = flow::load_variant_model(swap_each, cfg);
    for (size_t i = 0; i < design.num_instances(); ++i)
      scenarios.push_back({"swap " + design.instance_name(i),
                           {incr::ReplaceModule{i, variant}}});
  }
  if (!move_each.empty()) {
    const auto parts = split(move_each, ',');
    if (parts.size() != 2)
      throw Error("--move-each: expected DX,DY, got: " + move_each);
    const double dx = parse_number("--move-each dx", parts[0]);
    const double dy = parse_number("--move-each dy", parts[1]);
    for (size_t i = 0; i < design.num_instances(); ++i) {
      const placement::Point& o = st.inputs().instances[i].origin;
      scenarios.push_back({"move " + design.instance_name(i),
                           {incr::MoveInstance{i, o.x + dx, o.y + dy}}});
    }
  }
  if (!sigma_each.empty()) {
    const double s = parse_number("--sigma-each", sigma_each);
    for (size_t q = 0; q < cfg.parameters.size(); ++q)
      scenarios.push_back({"sigma " + cfg.parameters.at(q).name,
                           {incr::SigmaScale{q, s}}});
  }
  if (!rewire.empty()) {
    const auto [idx, spec] = parse_indexed("--rewire", rewire);
    const hier::Connection cn = parse_endpoints("--rewire", spec);
    scenarios.push_back(
        {"rewire " + std::to_string(idx),
         {incr::RewireConnection{idx, cn.from_output, cn.to_input}}});
  }

  WallTimer timer;
  const std::vector<incr::ScenarioResult> results =
      design.scenarios(scenarios);
  const double seconds = timer.seconds();

  if (json) {
    std::printf("%s\n", flow::sweep_report_json(design, results).c_str());
    return 0;
  }
  // The incremental base is bit-identical to design.delay(), which would
  // run a second, from-scratch analysis of the same design.
  std::printf("\nbase design delay: mean %.4f ns, sigma %.4f ns\n",
              st.delay().nominal(), st.delay().sigma());
  std::printf("%zu scenario%s in %.3f s on %zu thread%s:\n",
              results.size(), results.size() == 1 ? "" : "s", seconds,
              exec::effective_threads(cfg.threads),
              exec::effective_threads(cfg.threads) == 1 ? "" : "s");
  for (const incr::ScenarioResult& r : results) {
    if (!r.ok()) {
      std::printf("  %-22s ERROR: %s\n", r.label.c_str(), r.error.c_str());
      continue;
    }
    std::printf(
        "  %-22s mean %8.4f  sigma %7.4f  q99 %8.4f  (%.4f s, %llu/%llu "
        "vertices)\n",
        r.label.c_str(), r.delay.nominal(), r.delay.sigma(),
        r.delay.quantile(0.99), r.seconds,
        static_cast<unsigned long long>(r.stats.vertices_recomputed),
        static_cast<unsigned long long>(r.stats.vertices_live));
  }
  return 0;
}

/// campaign: distributed, resumable scenario-exploration campaigns (see
/// campaign/campaign.hpp). `run` executes the pending scenarios (sharded
/// across worker subprocesses, or in-process with --workers 0) and merges
/// automatically once every shard exists; `status` scans the shard
/// directory; `merge` re-folds existing shards into the campaign report.
int cmd_campaign(int argc, const char* const* argv) {
  const std::string action = argc >= 3 ? argv[2] : "";
  if (action != "run" && action != "status" && action != "merge") {
    std::fprintf(stderr,
                 "usage: hssta_cli campaign run|status|merge <spec.json> "
                 "--out DIR [flags]\n");
    return 2;
  }

  Common common;
  std::string spec, out_dir, worker_cmd;
  uint64_t workers = 4, limit = 0;
  util::ArgParser p("hssta_cli campaign " + action,
                    "distributed scenario-exploration campaign");
  p.positional("spec.json", &spec, "campaign spec file");
  p.option("--out", &out_dir, "dir",
           "campaign output directory (shards + merged report)");
  if (action == "run") {
    p.option("--workers", &workers, "N",
             "worker processes (default 4; 0 = in-process reference run)");
    p.option("--limit", &limit, "K",
             "stop after K scenario executions this run (0 = no limit)");
    p.option("--worker-cmd", &worker_cmd, "path",
             "worker executable (default: this hssta_cli binary)");
  }
  common.register_flags(p);
  if (!p.parse(argc, argv, 3)) return 0;
  if (out_dir.empty()) throw Error("campaign: --out is required");

  campaign::CampaignOptions opts;
  opts.out_dir = out_dir;
  opts.workers = workers;
  opts.limit = limit;
  opts.worker_cmd = worker_cmd;
  opts.config = common.load();
  // Workers re-derive the same expansion, so they need the same config.
  if (!common.config_file.empty()) {
    opts.worker_args.push_back("--config");
    opts.worker_args.push_back(common.config_file);
  }
  if (!common.cache_dir.empty()) {
    opts.worker_args.push_back("--cache-dir");
    opts.worker_args.push_back(common.cache_dir);
  }

  if (action == "status") {
    const campaign::StatusReport r = campaign::campaign_status(spec, opts);
    std::printf("campaign '%s' (base %s): %zu/%zu scenarios done "
                "(%zu failed), %zu remaining\n",
                r.name.c_str(), r.base_fingerprint.c_str(), r.done, r.total,
                r.failed, r.total - r.done);
    return 0;
  }
  if (action == "merge") {
    std::printf("%s", campaign::merge_campaign(spec, opts).c_str());
    return 0;
  }

  const std::string name = campaign::parse_campaign_file(spec).name;
  const campaign::RunStats s = campaign::run_campaign(spec, opts);
  std::printf("campaign '%s': %zu scenarios, %zu skipped, %zu executed "
              "(%zu failed), %zu remaining\n",
              name.c_str(), s.total, s.skipped, s.executed, s.failed,
              s.remaining);
  if (s.redispatched > 0)
    std::printf("%zu scenario%s redispatched after worker loss\n",
                s.redispatched, s.redispatched == 1 ? "" : "s");
  if (s.remaining == 0) {
    (void)campaign::merge_campaign(spec, opts);
    std::printf("merged report: %s/campaign.json\n", out_dir.c_str());
  } else {
    std::printf("re-run to resume, or `campaign status` for progress\n");
  }
  return 0;
}

/// campaign-worker: the subprocess side of `campaign run` (newline-JSON
/// over stdio; see campaign/campaign.hpp for the protocol).
int cmd_campaign_worker(int argc, const char* const* argv) {
  Common common;
  std::string spec, out_dir;
  util::ArgParser p("hssta_cli campaign-worker",
                    "campaign worker subprocess (spawned by `campaign run`)");
  p.option("--spec", &spec, "file", "campaign spec file");
  p.option("--out", &out_dir, "dir", "campaign output directory");
  common.register_flags(p);
  if (!p.parse(argc, argv, 2)) return 0;
  if (spec.empty() || out_dir.empty())
    throw Error("campaign-worker: --spec and --out are required");

  campaign::CampaignOptions opts;
  opts.out_dir = out_dir;
  opts.config = common.load();
  return campaign::worker_loop(spec, opts, std::cin, std::cout);
}

/// serve-client: drive a running hssta_serve daemon over its Unix-domain
/// socket. Requests come from --script FILE (one JSON request per line;
/// blank lines and #-comments skipped) or stdin; every response line is
/// printed to stdout. With --check the exit status reflects the
/// responses: any "ok":false response (or an unparsable one) fails the
/// run — the CI smoke test's assertion hook.
int cmd_serve_client(int argc, const char* const* argv) {
  std::string socket_path, script;
  bool check = false;
  util::ArgParser p("hssta_cli serve-client",
                    "line-oriented client for a running hssta_serve daemon");
  p.positional("socket", &socket_path, "daemon's Unix-domain socket path");
  p.option("--script", &script, "file",
           "request lines to send (default: stdin)");
  p.flag("--check", &check,
         "exit non-zero when any response reports ok=false");
  if (!p.parse(argc, argv, 2)) return 0;

  std::ifstream file;
  if (!script.empty()) {
    file.open(script);
    if (!file) throw Error("cannot open script file: " + script);
  }
  std::istream& in = script.empty() ? std::cin : file;

  serve::Client client(socket_path);
  bool all_ok = true;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::string response = client.request(line);
    std::printf("%s\n", response.c_str());
    if (!check) continue;
    try {
      const util::JsonValue doc = util::JsonReader::parse(response);
      if (!doc.at("ok").as_bool()) all_ok = false;
    } catch (const std::exception&) {
      all_ok = false;
    }
  }
  return all_ok ? 0 : 1;
}

int cmd_check(int argc, const char* const* argv) {
  Common common;
  bool json = false;
  std::vector<std::string> files;
  util::ArgParser p("hssta_cli check",
                    "static design diagnostics (hssta::check, no timing "
                    "run); exit code is the worst severity found: 0 clean "
                    "or info, 1 warning, 2 error");
  p.positional_rest("module.bench|.blif|.hstm|iscas-name", &files,
                    "netlists (.bench/BLIF), model files or ISCAS85 circuit names (>= 1)",
                    1);
  p.flag("--json", &json, "machine-readable JSON report on stdout");
  common.register_flags(p);
  if (!p.parse(argc, argv, 2)) return 0;

  const flow::Config cfg = common.load();
  check::CheckOptions opts;
  opts.severity = cfg.check_severity;

  const auto is_iscas = [](const std::string& f) {
    for (const netlist::IscasProfile& pr : netlist::iscas85_profiles())
      if (pr.name == f) return true;
    return false;
  };

  check::Report merged;
  merged.subject = files.size() == 1 ? files[0] : "check";
  bool chainable = files.size() >= 2;

  const std::shared_ptr<const library::CellLibrary> lib =
      flow::frontend_library(cfg);
  for (const std::string& f : files) {
    if (is_iscas(f)) {
      chainable = false;  // the chain builder resolves file paths only
      const flow::Module m = flow::Module::from_iscas(f, cfg);
      check::merge(merged, check::run_checks(m.netlist(), opts));
      check::merge(merged, check::run_checks(m.graph(), m.name(), opts));
      continue;
    }
    const flow::FileFormat fmt = flow::detect_file_format(f);
    if (fmt == flow::FileFormat::kHstm) {
      const model::TimingModel m = model::TimingModel::load_file(f);
      check::merge(merged, check::run_checks(m, opts));
      continue;
    }
    // Netlists parse without the throwing structural validation — linting
    // malformed netlists is the point of this subcommand.
    netlist::Netlist nl = [&] {
      if (fmt == flow::FileFormat::kBlif) {
        frontend::BlifOptions bopts;
        bopts.validate = false;
        bopts.model = cfg.frontend.blif_model;
        return frontend::read_blif_file(f, *lib, bopts);
      }
      if (fmt == flow::FileFormat::kBench)
        return netlist::read_bench_file(f, *lib, /*validate=*/false);
      throw Error("cannot check " + f + ": content detected as " +
                  flow::format_name(fmt) +
                  "; supported inputs are ISCAS .bench, BLIF, .hstm models "
                  "and ISCAS85 circuit names");
    }();
    check::Report r = check::run_checks(nl, opts);
    // Gate graph building on the *default* severities: a config override
    // can downgrade how a structural defect is reported, but an unsound
    // netlist still cannot be levelized.
    const bool broken = check::run_checks(nl, check::CheckOptions{}).worst() ==
                        check::Severity::kError;
    check::merge(merged, std::move(r));
    if (broken) {
      chainable = false;  // placement/levelization need a sound netlist
      continue;
    }
    const flow::Module m = flow::Module::from_netlist(std::move(nl), cfg, lib);
    check::merge(merged, check::run_checks(m.graph(), m.name(), opts));
  }

  // With >= 2 sound module files, also lint the chained design itself
  // (stitch boundaries, variation agreement) — the same assembly hier/eco
  // analyze.
  if (chainable && merged.worst() != check::Severity::kError) {
    const flow::Design design = build_chain(files, cfg, /*verbose=*/false);
    check::Report r = design.check(opts);
    merged.instances_checked = r.instances_checked;
    check::merge(merged, std::move(r));
  }

  if (json) {
    std::printf("%s\n", check::report_json(merged).c_str());
  } else {
    std::fputs(merged.summary().c_str(), stdout);
    std::printf("%s: %zu error(s), %zu warning(s), %zu info(s)\n",
                merged.subject.c_str(),
                merged.count(check::Severity::kError),
                merged.count(check::Severity::kWarning),
                merged.count(check::Severity::kInfo));
  }
  return check::exit_code(merged);
}

int print_version() {
  std::printf("%s\n", build_info().c_str());
  return 0;
}

/// Print the subcommand summary to `out` and return `rc`: stdout and 0 when
/// asked for (--help), stderr and 2 on a usage error.
int usage(std::FILE* out = stderr, int rc = 2) {
  std::fprintf(out,
               "usage:\n"
               "  hssta_cli report  <in.bench|.blif> [flags]\n"
               "  hssta_cli extract <in.bench|.blif> <out.hstm> [flags]\n"
               "  hssta_cli mc      <in.bench|.blif> [flags]\n"
               "  hssta_cli hier    <m1.bench|.blif|.hstm> <m2...> [flags]\n"
               "  hssta_cli eco     <m1.bench|.blif|.hstm> <m2...> --swap I=FILE |"
               " --move I=X,Y | --rewire C=A.B:C.D | --sigma P=S\n"
               "  hssta_cli sweep   <m1.bench|.blif|.hstm> <m2...> --swap-each F |"
               " --move-each DX,DY | --sigma-each S | --rewire ...\n"
               "  hssta_cli campaign run|status|merge <spec.json> --out DIR "
               "[--workers N] [--limit K]\n"
               "  hssta_cli check   <m.bench|.blif|.hstm|iscas-name> [...] "
               "[--json]   static design lint\n"
               "  hssta_cli serve-client <socket> [--script FILE] [--check]\n"
               "  hssta_cli --version\n"
               "  hssta_cli --help\n"
               "run a subcommand with --help for its flags\n");
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc < 2) return usage();
    const std::string cmd = argv[1];
    if (cmd == "report") return cmd_report(argc, argv);
    if (cmd == "extract") return cmd_extract(argc, argv);
    if (cmd == "mc") return cmd_mc(argc, argv);
    if (cmd == "hier") return cmd_hier(argc, argv);
    if (cmd == "eco") return cmd_eco(argc, argv);
    if (cmd == "sweep") return cmd_sweep(argc, argv);
    if (cmd == "campaign") return cmd_campaign(argc, argv);
    if (cmd == "campaign-worker") return cmd_campaign_worker(argc, argv);
    if (cmd == "check") return cmd_check(argc, argv);
    if (cmd == "serve-client") return cmd_serve_client(argc, argv);
    if (cmd == "--version" || cmd == "version") return print_version();
    if (cmd == "--help" || cmd == "-h" || cmd == "help")
      return usage(stdout, 0);
    std::fprintf(stderr, "hssta_cli: unknown subcommand '%s'\n", cmd.c_str());
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
