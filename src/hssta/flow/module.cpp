#include "hssta/flow/module.hpp"

#include <map>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <utility>

#include "hssta/flow/detect.hpp"
#include "hssta/frontend/blif.hpp"
#include "hssta/frontend/liberty.hpp"
#include "hssta/frontend/sequential.hpp"
#include "hssta/netlist/bench_io.hpp"
#include "hssta/netlist/iscas.hpp"
#include "hssta/placement/placement.hpp"
#include "hssta/stats/rng.hpp"
#include "hssta/util/error.hpp"
#include "hssta/util/hash.hpp"
#include "hssta/util/timer.hpp"

namespace hssta::flow {

std::shared_ptr<const library::CellLibrary> default_library() {
  static const std::shared_ptr<const library::CellLibrary> lib =
      std::make_shared<const library::CellLibrary>(library::default_90nm());
  return lib;
}

std::shared_ptr<const library::CellLibrary> frontend_library(
    const Config& cfg) {
  if (cfg.frontend.liberty.empty()) return default_library();
  frontend::LibertyLibrary lib =
      frontend::read_liberty_file(cfg.frontend.liberty);
  return std::make_shared<const library::CellLibrary>(std::move(lib.cells));
}

/// All pipeline state behind one Module handle. Stages are std::optional
/// caches filled on first use; parameterized stages key a std::map on the
/// argument (map nodes are address-stable, so references returned earlier
/// survive later calls with different arguments).
///
/// Thread safety: getters take `mu` shared to *check* a cache and unique
/// to *fill* it (double-checked: a second writer that lost the race finds
/// the stage filled and returns it). Cache hits from any number of threads
/// therefore proceed concurrently — a many-reader incremental sweep no
/// longer serializes on the handle — while a stage still computes exactly
/// once. The ensure_* helpers run with the unique lock held and call only
/// each other (never the public getters), so the non-recursive lock is
/// never re-entered. Cached objects are never moved or destroyed while the
/// State lives, so references handed out remain valid without any lock.
struct Module::State {
  Config cfg;
  std::shared_ptr<const library::CellLibrary> lib;
  netlist::Netlist nl;

  mutable std::shared_mutex mu;
  std::shared_ptr<exec::Executor> exec;

  std::optional<placement::Placement> placement;
  std::optional<variation::ModuleVariation> variation;
  std::optional<timing::BuiltGraph> built;

  std::optional<core::SstaResult> ssta;
  std::map<double, core::SlackResult> slack;
  std::map<size_t, std::vector<core::CriticalPath>> paths;
  std::map<std::pair<double, bool>, model::Extraction> extractions;
  std::optional<mc::FlatCircuit> flat;
  std::map<std::pair<size_t, uint64_t>, stats::EmpiricalDistribution> mc;

  std::optional<cache::ModelCache> model_cache;
  std::optional<uint64_t> base_fp;

  State(Config c, std::shared_ptr<const library::CellLibrary> l,
        netlist::Netlist n)
      : cfg(std::move(c)), lib(std::move(l)), nl(std::move(n)) {}

  /// --- compute paths; all called with `mu` held unique ------------------

  exec::Executor& executor() {
    if (!exec) exec = exec::make_executor(cfg.threads);
    return *exec;
  }

  /// The persistent model cache (config cache.dir), opened on first use.
  /// Only call when cfg.cache.active().
  cache::ModelCache& cache() {
    if (!model_cache) model_cache.emplace(cfg.cache.dir);
    return *model_cache;
  }

  /// Fingerprint of everything an extraction depends on except the
  /// extraction options: netlist, cell library, config. Computed once.
  uint64_t base_fingerprint() {
    if (!base_fp)
      base_fp = util::Fnv1a()
                    .u64(netlist::fingerprint(nl))
                    .u64(library::fingerprint(*lib))
                    .u64(extraction_fingerprint(cfg))
                    .value();
    return *base_fp;
  }

  const placement::Placement& ensure_placement() {
    if (!placement) placement = placement::place_rows(nl, cfg.place);
    return *placement;
  }

  const variation::ModuleVariation& ensure_variation() {
    if (!variation)
      variation = variation::make_module_variation(
          ensure_placement(), nl.num_gates(), cfg.parameters, cfg.correlation,
          cfg.max_cells_per_grid, cfg.pca);
    return *variation;
  }

  const timing::BuiltGraph& ensure_built() {
    if (!built)
      built = timing::build_timing_graph(nl, ensure_placement(),
                                         ensure_variation(), cfg.build);
    return *built;
  }

  const core::SstaResult& ensure_ssta() {
    if (!ssta) ssta = core::run_ssta(ensure_built().graph);
    return *ssta;
  }

  const core::SlackResult& ensure_slack(double required_at_outputs) {
    auto it = slack.find(required_at_outputs);
    if (it == slack.end())
      it = slack
               .emplace(required_at_outputs,
                        core::compute_slack(ensure_built().graph,
                                            required_at_outputs))
               .first;
    return it->second;
  }

  const std::vector<core::CriticalPath>& ensure_paths(size_t k) {
    auto it = paths.find(k);
    if (it == paths.end())
      it = paths.emplace(k, core::report_critical_paths(ensure_built().graph,
                                                        k))
               .first;
    return it->second;
  }

  const model::Extraction& ensure_extraction(const model::ExtractOptions& opts,
                                             exec::Executor& ex) {
    const std::pair<double, bool> key{opts.criticality_threshold,
                                      opts.repair_connectivity};
    auto it = extractions.find(key);
    if (it != extractions.end()) return it->second;

    // Consult the persistent cache before extracting. A hit skips the
    // whole placement -> variation -> graph -> criticality pipeline (the
    // loader re-derives the model's own PCA space from the stored
    // geometry) and is byte-identical to a fresh extraction by the
    // serializer's round-trip guarantee.
    const bool cached = cfg.cache.active();
    uint64_t fp = 0;
    if (cached) {
      fp = util::Fnv1a()
               .u64(base_fingerprint())
               .u64(model::fingerprint(opts))
               .value();
      WallTimer timer;
      if (std::optional<model::TimingModel> m = cache().load(fp)) {
        model::ExtractionStats stats;
        stats.from_cache = true;
        stats.model_vertices = m->graph().num_live_vertices();
        stats.model_edges = m->graph().num_live_edges();
        stats.seconds = timer.seconds();
        return extractions
            .emplace(key, model::Extraction{std::move(*m), std::move(stats)})
            .first->second;
      }
    }

    it = extractions
             .emplace(key, model::extract_timing_model(
                               ensure_built(), ensure_variation(), nl.name(),
                               model::compute_boundary(nl), ex, opts))
             .first;
    // Sequential modules carry their register records and folded FF-to-FF
    // constraints in the model ("hstm 2"); attach them before the store so
    // a cache hit round-trips the same data.
    if (nl.is_sequential()) {
      frontend::SequentialExtraction seq =
          frontend::extract_sequential(nl, ensure_built());
      it->second.model.set_sequential(std::move(seq.registers),
                                      std::move(seq.constraints));
    }
    if (cached) cache().store(fp, it->second.model);
    return it->second;
  }

  const mc::FlatCircuit& ensure_flat() {
    if (!flat)
      flat = mc::FlatCircuit::from_module(ensure_built(), nl,
                                          ensure_variation());
    return *flat;
  }

  const stats::EmpiricalDistribution& ensure_mc(const McOptions& opts) {
    const std::pair<size_t, uint64_t> key{opts.samples, opts.seed};
    auto it = mc.find(key);
    if (it == mc.end())
      it = mc.emplace(key, ensure_flat().sample_delay(opts.samples, opts.seed,
                                                      executor()))
               .first;
    return it->second;
  }
};

namespace {
using ReadLock = std::shared_lock<std::shared_mutex>;
using WriteLock = std::unique_lock<std::shared_mutex>;
}  // namespace

Module Module::from_netlist(netlist::Netlist nl, Config cfg,
                            std::shared_ptr<const library::CellLibrary> lib) {
  if (nl.is_sequential() && !cfg.frontend.sequential)
    throw Error("netlist '" + nl.name() + "' is sequential (" +
                std::to_string(nl.num_registers()) +
                " registers) but the configuration disables sequential "
                "analysis ([frontend] sequential = false)");
  if (!lib) lib = frontend_library(cfg);
  return Module(std::make_shared<State>(std::move(cfg), std::move(lib),
                                        std::move(nl)));
}

Module Module::from_file(const std::string& path, Config cfg,
                         std::shared_ptr<const library::CellLibrary> lib) {
  const FileFormat fmt = detect_file_format(path);
  if (fmt != FileFormat::kBench && fmt != FileFormat::kBlif)
    throw Error("cannot load a module from " + path + ": content detected "
                "as " + format_name(fmt) + "; supported netlist formats "
                "are ISCAS .bench and BLIF");
  if (!lib) lib = frontend_library(cfg);
  netlist::Netlist nl = [&] {
    if (fmt == FileFormat::kBench) return netlist::read_bench_file(path, *lib);
    frontend::BlifOptions opts;
    opts.model = cfg.frontend.blif_model;
    return frontend::read_blif_file(path, *lib, opts);
  }();
  return from_netlist(std::move(nl), std::move(cfg), std::move(lib));
}

Module Module::from_bench_string(
    const std::string& text, Config cfg,
    std::shared_ptr<const library::CellLibrary> lib) {
  if (!lib) lib = frontend_library(cfg);
  netlist::Netlist nl = netlist::read_bench_string(text, *lib);
  return from_netlist(std::move(nl), std::move(cfg), std::move(lib));
}

Module Module::from_iscas(std::string_view name, Config cfg, uint64_t seed,
                          std::shared_ptr<const library::CellLibrary> lib) {
  if (!lib) lib = frontend_library(cfg);
  netlist::Netlist nl = netlist::make_iscas85(name, *lib, seed);
  return from_netlist(std::move(nl), std::move(cfg), std::move(lib));
}

Module Module::from_random_dag(
    const netlist::RandomDagSpec& spec, Config cfg,
    std::shared_ptr<const library::CellLibrary> lib) {
  if (!lib) lib = frontend_library(cfg);
  netlist::Netlist nl = netlist::make_random_dag(spec, *lib);
  return from_netlist(std::move(nl), std::move(cfg), std::move(lib));
}

const std::string& Module::name() const { return state_->nl.name(); }

const Config& Module::config() const { return state_->cfg; }

const library::CellLibrary& Module::library() const { return *state_->lib; }

const netlist::Netlist& Module::netlist() const { return state_->nl; }

const placement::Placement& Module::placement() const {
  State& s = *state_;
  {
    const ReadLock lock(s.mu);
    if (s.placement) return *s.placement;
  }
  const WriteLock lock(s.mu);
  return s.ensure_placement();
}

const variation::ModuleVariation& Module::variation() const {
  State& s = *state_;
  {
    const ReadLock lock(s.mu);
    if (s.variation) return *s.variation;
  }
  const WriteLock lock(s.mu);
  return s.ensure_variation();
}

const timing::BuiltGraph& Module::built() const {
  State& s = *state_;
  {
    const ReadLock lock(s.mu);
    if (s.built) return *s.built;
  }
  const WriteLock lock(s.mu);
  return s.ensure_built();
}

const timing::TimingGraph& Module::graph() const { return built().graph; }

const core::SstaResult& Module::ssta() const {
  State& s = *state_;
  {
    const ReadLock lock(s.mu);
    if (s.ssta) return *s.ssta;
  }
  const WriteLock lock(s.mu);
  return s.ensure_ssta();
}

const timing::CanonicalForm& Module::delay() const { return ssta().delay; }

const core::SlackResult& Module::slack(double required_at_outputs) const {
  State& s = *state_;
  {
    const ReadLock lock(s.mu);
    const auto it = s.slack.find(required_at_outputs);
    if (it != s.slack.end()) return it->second;
  }
  const WriteLock lock(s.mu);
  return s.ensure_slack(required_at_outputs);
}

const std::vector<core::CriticalPath>& Module::critical_paths(size_t k) const {
  State& s = *state_;
  {
    const ReadLock lock(s.mu);
    const auto it = s.paths.find(k);
    if (it != s.paths.end()) return it->second;
  }
  const WriteLock lock(s.mu);
  return s.ensure_paths(k);
}

const model::Extraction& Module::extract_model() const {
  return extract_model(state_->cfg.extract);
}

const model::Extraction& Module::extract_model(
    const model::ExtractOptions& opts) const {
  State& s = *state_;
  {
    const ReadLock lock(s.mu);
    const std::pair<double, bool> key{opts.criticality_threshold,
                                      opts.repair_connectivity};
    const auto it = s.extractions.find(key);
    if (it != s.extractions.end()) return it->second;
  }
  const WriteLock lock(s.mu);
  return s.ensure_extraction(opts, s.executor());
}

const model::Extraction& Module::extract_model(
    const model::ExtractOptions& opts, exec::Executor& ex) const {
  State& s = *state_;
  {
    const ReadLock lock(s.mu);
    const std::pair<double, bool> key{opts.criticality_threshold,
                                      opts.repair_connectivity};
    const auto it = s.extractions.find(key);
    if (it != s.extractions.end()) return it->second;
  }
  const WriteLock lock(s.mu);
  return s.ensure_extraction(opts, ex);
}

cache::CacheStats Module::cache_stats() const {
  State& s = *state_;
  const ReadLock lock(s.mu);
  return s.model_cache ? s.model_cache->stats() : cache::CacheStats{};
}

const model::TimingModel& Module::model() const {
  return extract_model().model;
}

std::shared_ptr<const model::TimingModel> Module::model_ptr() const {
  return std::shared_ptr<const model::TimingModel>(state_, &model());
}

const mc::FlatCircuit& Module::flat_circuit() const {
  State& s = *state_;
  {
    const ReadLock lock(s.mu);
    if (s.flat) return *s.flat;
  }
  const WriteLock lock(s.mu);
  return s.ensure_flat();
}

const stats::EmpiricalDistribution& Module::monte_carlo() const {
  return monte_carlo(state_->cfg.mc);
}

const stats::EmpiricalDistribution& Module::monte_carlo(
    const McOptions& opts) const {
  State& s = *state_;
  {
    const ReadLock lock(s.mu);
    const std::pair<size_t, uint64_t> key{opts.samples, opts.seed};
    const auto it = s.mc.find(key);
    if (it != s.mc.end()) return it->second;
  }
  const WriteLock lock(s.mu);
  return s.ensure_mc(opts);
}

}  // namespace hssta::flow
