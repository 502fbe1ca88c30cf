// characterize — the IP vendor's one-off job (paper Sec. IV, Table I):
// read the ten synthetic ISCAS85 netlists plus the sequential s27 by
// content, extract each gray-box model and write its .hstm bytes.
//
// Untraced: whole library passes through flow::Module at T threads until
// the time budget is spent. Traced: one pass at 1 thread driven layer by
// layer (parse, place, variation, graph build, criticality, prune,
// repair, reduce, model build, save); its bytes must equal the untraced
// pass's, which proves the split is the same work and pins bit-identity
// across thread counts.

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <optional>
#include <sstream>

#include "harness.hpp"
#include "hssta/core/criticality.hpp"
#include "hssta/core/io_delays.hpp"
#include "hssta/exec/executor.hpp"
#include "hssta/flow/module.hpp"
#include "hssta/frontend/blif.hpp"
#include "hssta/frontend/sequential.hpp"
#include "hssta/model/reduce.hpp"
#include "hssta/model/timing_model.hpp"
#include "hssta/netlist/bench_io.hpp"
#include "hssta/netlist/iscas.hpp"

namespace perfbench {

namespace {

using namespace hssta;
namespace fs = std::filesystem;

struct LibraryFile {
  std::string name;  ///< circuit name (c432 ... c7552, s27)
  std::string path;  ///< netlist written at setup (.bench or BLIF)
  std::string out;   ///< where each pass writes the model
};

struct Fixture {
  std::vector<LibraryFile> files;
};

/// Write the library: the repository's ten synthetic ISCAS85 circuits
/// (the paper's suite, so every seed extracts the same circuits), three
/// of them chosen by the workload seed written as BLIF, plus the
/// committed s27.bench.
Fixture write_library(const Options& o, uint64_t seed) {
  Rng rng(seed);
  std::vector<size_t> blif;
  while (blif.size() < 3) {
    const size_t k = rng.below(10);
    if (std::find(blif.begin(), blif.end(), k) == blif.end()) blif.push_back(k);
  }
  Fixture fx;
  const auto& profiles = netlist::iscas85_profiles();
  for (size_t k = 0; k < profiles.size(); ++k) {
    const std::string& name = profiles[k].name;
    const netlist::Netlist nl =
        netlist::make_iscas85(name, *flow::default_library());
    const bool as_blif =
        std::find(blif.begin(), blif.end(), k) != blif.end();
    LibraryFile f{name, name + (as_blif ? ".blif" : ".bench"),
                  name + ".hstm"};
    write_file(f.path, as_blif ? frontend::write_blif_string(nl)
                               : netlist::write_bench_string(nl));
    fx.files.push_back(std::move(f));
  }
  const std::string s27 =
      read_file((fs::path(o.repo_root) / "testdata" / "s27.bench").string());
  write_file("s27.bench", s27);
  fx.files.push_back({"s27", "s27.bench", "s27.hstm"});
  return fx;
}

/// One untraced library pass: netlist files -> .hstm bytes. The module
/// handles go to `modules`, so the caller can release them outside the
/// timing and read their extraction statistics.
std::vector<std::string> library_pass(const Fixture& fx,
                                      const flow::Config& cfg,
                                      std::vector<flow::Module>& modules) {
  std::vector<std::string> bytes;
  for (const LibraryFile& f : fx.files) {
    modules.push_back(flow::Module::from_file(f.path, cfg));
    std::ostringstream os;
    modules.back().model().save(os);
    bytes.push_back(os.str());
    write_file(f.out, bytes.back());
  }
  return bytes;
}

/// Max-bottleneck-criticality path from `input` to `output` (the
/// extractor's connectivity repair, driven here through public graph
/// calls so the traced pass reproduces extraction exactly).
std::vector<timing::EdgeId> widest_path(const timing::TimingGraph& g,
                                        const std::vector<double>& cm,
                                        timing::VertexId input,
                                        timing::VertexId output) {
  std::vector<double> width(g.num_vertex_slots(), -1.0);
  std::vector<timing::EdgeId> via(g.num_vertex_slots(), timing::kNoEdge);
  width[input] = 2.0;
  for (const timing::VertexId v : g.topo_order()) {
    if (width[v] < 0.0) continue;
    for (const timing::EdgeId e : g.vertex(v).fanout) {
      const timing::VertexId w = g.edge(e).to;
      const double cand = std::min(width[v], cm[e]);
      if (cand > width[w]) {
        width[w] = cand;
        via[w] = e;
      }
    }
  }
  std::vector<timing::EdgeId> path;
  if (width[output] < 0.0) return path;
  for (timing::VertexId v = output; v != input; v = g.edge(via[v]).from)
    path.push_back(via[v]);
  return path;
}

/// Worst relative IO-delay sigma error of a model against the flat
/// all-pairs SSTA of its original graph.
double io_sigma_error(const core::DelayMatrix& model,
                      const core::DelayMatrix& flat) {
  double worst = 0.0;
  for (size_t i = 0; i < flat.num_inputs(); ++i)
    for (size_t j = 0; j < flat.num_outputs(); ++j) {
      if (!flat.is_valid(i, j) || !model.is_valid(i, j)) continue;
      const double s = flat.at(i, j).sigma();
      if (s > 1e-12)
        worst = std::max(worst, std::abs(model.at(i, j).sigma() - s) / s);
    }
  return worst;
}

struct Counters {
  size_t orig_edges = 0, model_edges = 0, pruned = 0, repaired = 0;
  timing::MaxDiagnostics diag;
  /// Per module: the model and the flat all-pairs SSTA of its original,
  /// compared after the timed pass.
  std::vector<model::TimingModel> models;
  std::vector<core::DelayMatrix> flat;
};

/// The traced pass: one module at a time, every layer call in a span.
std::vector<std::string> traced_pass(const Fixture& fx, const flow::Config& cfg,
                                     Tracer& tr, Counters& c) {
  std::vector<std::string> bytes;
  exec::SerialExecutor ex;
  for (size_t idx = 0; idx < fx.files.size(); ++idx) {
    const LibraryFile& f = fx.files[idx];
    const Tracer::Scope module_span = tr.span("module", idx);
    std::optional<flow::Module> m;
    {
      const Tracer::Scope s = tr.span("netlist.parse", idx);
      m.emplace(flow::Module::from_file(f.path, cfg));
    }
    {
      const Tracer::Scope s = tr.span("placement.place", idx);
      (void)m->placement();
    }
    {
      const Tracer::Scope s = tr.span("variation.pca", idx);
      (void)m->variation();
    }
    const timing::BuiltGraph* built = nullptr;
    {
      const Tracer::Scope s = tr.span("timing.build", idx);
      built = &m->built();
    }
    const timing::TimingGraph& original = built->graph;
    core::CriticalityOptions copts;
    copts.level_parallel = cfg.level_parallel;
    core::CriticalityResult crit;
    {
      const Tracer::Scope s = tr.span("core.criticality", idx);
      crit = core::compute_criticality(original, ex, copts);
    }
    c.diag += crit.diagnostics;
    c.orig_edges += original.num_live_edges();

    timing::TimingGraph g{size_t{0}};
    {
      const Tracer::Scope s = tr.span("model.prune", idx);
      g = original;
      for (timing::EdgeId e = 0; e < g.num_edge_slots(); ++e)
        if (g.edge_alive(e) &&
            crit.max_criticality[e] < cfg.extract.criticality_threshold) {
          g.remove_edge(e);
          ++c.pruned;
        }
    }
    if (cfg.extract.repair_connectivity) {
      const Tracer::Scope s = tr.span("model.repair", idx);
      const auto& ins = g.inputs();
      const auto& outs = g.outputs();
      for (size_t i = 0; i < ins.size(); ++i) {
        std::vector<uint8_t> reach = g.reachable_from(ins[i]);
        for (size_t j = 0; j < outs.size(); ++j) {
          if (!crit.io_delays.is_valid(i, j) || reach[outs[j]]) continue;
          for (const timing::EdgeId e : widest_path(
                   original, crit.max_criticality, ins[i], outs[j]))
            if (!g.edge_alive(e))
              g.add_edge(original.edge(e).from, original.edge(e).to,
                         original.edge(e).delay);
          ++c.repaired;
          reach = g.reachable_from(ins[i]);
        }
      }
    }
    {
      const Tracer::Scope s = tr.span("model.reduce", idx);
      (void)model::reduce_graph(g);
    }
    c.model_edges += g.num_live_edges();
    std::optional<model::TimingModel> tm;
    {
      const Tracer::Scope s = tr.span("model.build", idx);
      tm.emplace(m->netlist().name(), std::move(g), m->variation(),
                 model::compute_boundary(m->netlist()));
      if (m->netlist().is_sequential()) {
        frontend::SequentialExtraction seq =
            frontend::extract_sequential(m->netlist(), *built);
        tm->set_sequential(std::move(seq.registers),
                           std::move(seq.constraints));
      }
    }
    {
      const Tracer::Scope s = tr.span("model.save", idx);
      std::ostringstream os;
      tm->save(os);
      bytes.push_back(os.str());
      write_file(f.out, bytes.back());
    }
    c.models.push_back(std::move(*tm));
    c.flat.push_back(std::move(crit.io_delays));
  }
  return bytes;
}

}  // namespace

void run_characterize(const Options& o, Tracer& tr, Result& res,
                      HostSpeed& host) {
  // Set-up takes tens of milliseconds, so the host's state at one moment
  // would decide it. Besides the repeats up front it runs again before
  // every pass, rewriting the same files: its median samples the whole run.
  std::vector<double> setup_s;
  Fixture fx;
  auto set_up = [&] {
    const Clock::time_point t0 = Clock::now();
    fx = write_library(o, o.seed);
    setup_s.push_back(seconds_since(t0));
  };
  for (int k = 0; k < 11; ++k) set_up();
  const flow::Config cfg = bench_config(o.threads);
  const size_t modules = fx.files.size();

  // One untimed pass warms the allocator and gives the reference bytes;
  // then untraced passes at T threads until the budget is spent.
  std::vector<flow::Module> last;
  const std::vector<std::string> ref = library_pass(fx, cfg, last);
  res.attempt(modules);
  std::vector<double> pass_s;
  const Clock::time_point start = Clock::now();
  const double budget = o.trace ? 0.0 : o.seconds;
  double busy = 0.0;  // the passes' wall time, without the host samples
  while (pass_s.size() < 2 || seconds_since(start) < budget) {
    last.clear();
    set_up();
    host.sample();
    const Clock::time_point t0 = Clock::now();
    const std::vector<std::string> bytes = library_pass(fx, cfg, last);
    pass_s.push_back(seconds_since(t0));
    busy += pass_s.back();
    res.attempt(modules);
    res.gate(bytes == ref, ".hstm bytes identical across passes");
  }
  res.set("setup_s", median(setup_s), "s");
  const double pass_p50 = median(pass_s);
  res.set("latency_p50_ms", 1e3 * pass_p50, "ms");
  res.set("latency_p90_ms", 1e3 * percentile(pass_s, 0.9), "ms");
  res.set("throughput_per_s",
          static_cast<double>(modules * pass_s.size()) / busy, "1/s");
  res.set("extract_library_s", pass_p50, "s");
  res.set("passes", static_cast<double>(pass_s.size()), "count");

  // Model quality of the last pass (outside the timing): edge ratio and
  // worst IO sigma error against flat all-pairs SSTA of each original.
  // The traced run measures the same numbers from its own pass.
  if (!o.trace) {
    size_t eo = 0, em = 0;
    double io_err = 0.0;
    exec::ThreadPoolExecutor pool(o.threads);
    for (const flow::Module& m : last) {
      const model::Extraction& x = m.extract_model();
      eo += x.stats.original_edges;
      em += x.stats.model_edges;
      io_err = std::max(io_err, io_sigma_error(x.model.io_delays(),
                                               core::all_pairs_io_delays(
                                                   m.graph(), pool)));
    }
    res.set("model_edge_ratio", static_cast<double>(em) / static_cast<double>(eo),
            "ratio");
    res.set("model_io_err_pct", 100.0 * io_err, "%");
    return;
  }

  // Traced run: the pass layer by layer at 1 thread, bracketed by two
  // untraced 1-thread passes whose mean is the overhead's baseline.
  const flow::Config cfg1 = bench_config(1);
  double serial_s = 0.0;
  auto serial_pass = [&] {
    last.clear();
    const Clock::time_point t0 = Clock::now();
    const std::vector<std::string> bytes = library_pass(fx, cfg1, last);
    serial_s += seconds_since(t0) / 2;
    res.attempt(modules);
    res.gate(bytes == ref, ".hstm bytes identical at 1 and T threads");
  };
  serial_pass();
  Counters c;
  const Clock::time_point t0 = Clock::now();
  const std::vector<std::string> traced = [&] {
    const Tracer::Scope s = tr.span("pass");
    return traced_pass(fx, cfg1, tr, c);
  }();
  const double traced_s = seconds_since(t0);
  res.attempt(modules);
  res.gate(traced == ref, "layer-by-layer .hstm bytes equal the pass bytes");
  serial_pass();

  // The forward share of criticality: per-input sweeps alone.
  exec::SerialExecutor ex;
  for (size_t idx = 0; idx < modules; ++idx) {
    const flow::Module m = flow::Module::from_file(fx.files[idx].path, cfg1);
    const timing::TimingGraph& g = m.graph();
    const Tracer::Scope s = tr.span("core.io_delays", idx);
    (void)core::all_pairs_io_delays(g, ex);
  }

  res.set("trace.overhead_pct.characterize",
          100.0 * (traced_s - serial_s) / serial_s, "%");
  res.set("netlist.parse_s", tr.self("netlist.parse"), "s");
  res.set("placement.place_s", tr.self("placement.place"), "s");
  res.set("variation.pca_s", tr.self("variation.pca"), "s");
  res.set("timing.build_s", tr.self("timing.build"), "s");
  res.set("core.criticality_s", tr.self("core.criticality"), "s");
  for (size_t idx = 0; idx < modules; ++idx)
    res.set("core.criticality_s." + fx.files[idx].name,
            tr.total("core.criticality", idx), "s");
  res.set("core.io_delays_s", tr.self("core.io_delays"), "s");
  res.set("core.max_ops", static_cast<double>(c.diag.ops), "count");
  res.set("core.variance_clamped", static_cast<double>(c.diag.variance_clamped),
          "count");
  res.set("core.degenerate_theta",
          static_cast<double>(c.diag.degenerate_theta), "count");
  res.set("model.prune_s", tr.self("model.prune"), "s");
  res.set("model.repair_s", tr.self("model.repair"), "s");
  res.set("model.reduce_s", tr.self("model.reduce"), "s");
  res.set("model.build_s", tr.self("model.build"), "s");
  res.set("model.save_s", tr.self("model.save"), "s");
  res.set("model.prune_ratio",
          static_cast<double>(c.pruned) / static_cast<double>(c.orig_edges),
          "ratio");
  res.set("model.pairs_repaired", static_cast<double>(c.repaired), "count");
  res.set("model_edge_ratio",
          static_cast<double>(c.model_edges) / static_cast<double>(c.orig_edges),
          "ratio");
  double io_err = 0.0;
  for (size_t idx = 0; idx < modules; ++idx)
    io_err = std::max(io_err,
                      io_sigma_error(c.models[idx].io_delays(), c.flat[idx]));
  res.set("model_io_err_pct", 100.0 * io_err, "%");
}

}  // namespace perfbench
