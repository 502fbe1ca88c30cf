// signoff — the integrator's recurring job (paper Sec. V, Fig. 7): load
// the .hstm models of c6288 and c7552, assemble the Fig. 7 four-instance
// design for each and analyze it in both correlation modes; a flattened
// Monte Carlo reference of 4 x c6288 checks the replacement-mode result.
//
// Untraced: Monte Carlo batches at T threads (samples/s) alternate with
// pairs of signoff passes until the time budget is spent. Traced: one pass
// driven layer by layer (model load, assembly, design grid, design PCA,
// stitch, propagation); its delays must equal the untraced pass's bit for
// bit.

#include <cmath>
#include <functional>
#include <memory>
#include <optional>

#include "harness.hpp"
#include "hssta/core/ssta.hpp"
#include "hssta/exec/executor.hpp"
#include "hssta/flow/design.hpp"
#include "hssta/flow/module.hpp"
#include "hssta/hier/design_grid.hpp"
#include "hssta/hier/stitch.hpp"
#include "hssta/mc/hier_mc.hpp"
#include "hssta/model/timing_model.hpp"
#include "hssta/netlist/iscas.hpp"
#include "hssta/stats/normal.hpp"

namespace perfbench {

namespace {

using namespace hssta;

const char* const kCircuits[] = {"c6288", "c7552"};
constexpr size_t kMcBatches = 8;
constexpr size_t kMcBatchSamples = 512;

struct Fixture {
  std::vector<std::string> files;      ///< .hstm per circuit
  std::optional<flow::Module> c6288;   ///< live module for Monte Carlo
};

/// Pre-extract the models of the repository's synthetic c6288 and c7552;
/// the workload seed drives only the Monte Carlo stream.
Fixture setup(const flow::Config& cfg) {
  Fixture fx;
  for (const char* c : kCircuits) {
    const flow::Module m = flow::Module::from_netlist(
        netlist::make_iscas85(c, *flow::default_library()), cfg);
    fx.files.push_back(std::string(c) + ".hstm");
    m.model().save_file(fx.files.back());
    if (fx.files.size() == 1) fx.c6288 = m;
  }
  return fx;
}

/// The paper's Fig. 7 design: four instances in two columns in abutment,
/// first-column outputs cross-connected to second-column inputs.
using AddInstance =
    std::function<size_t(flow::Design&, double, double, std::string)>;

flow::Design fig7(const placement::Die& mdie, const flow::Config& cfg,
                  const AddInstance& add) {
  flow::Design d("fig7", placement::Die{2 * mdie.width, 2 * mdie.height}, cfg);
  const size_t a = add(d, 0, 0, "A");
  const size_t b = add(d, 0, mdie.height, "B");
  const size_t c = add(d, mdie.width, 0, "C");
  const size_t e = add(d, mdie.width, mdie.height, "D");
  const size_t ni = d.num_inputs(a);
  const size_t no = d.num_outputs(a);
  const size_t half = ni / 2;
  for (size_t k = 0; k < ni; ++k) {
    const size_t c_src = k < half ? a : b;
    const size_t c_port = k < half ? k : k - half;
    const size_t d_src = k < half ? b : a;
    const size_t d_port = k < half ? k + half : k;
    d.connect(c_src, c_port % no, c, k);
    d.connect(d_src, d_port % no, e, k);
  }
  for (size_t k = 0; k < ni; ++k) {
    d.primary_input("pa" + std::to_string(k), a, k);
    d.primary_input("pb" + std::to_string(k), b, k);
  }
  for (size_t k = 0; k < no; ++k) {
    d.primary_output("qc" + std::to_string(k), c, k);
    d.primary_output("qd" + std::to_string(k), e, k);
  }
  return d;
}

flow::Design model_design(std::shared_ptr<const model::TimingModel> m,
                          const flow::Config& cfg) {
  const placement::Die die = m->die();
  return fig7(die, cfg,
              [m](flow::Design& d, double x, double y, std::string name) {
                return d.add_instance(m, x, y, std::move(name));
              });
}

hier::HierOptions mode_options(const flow::Config& cfg,
                               hier::CorrelationMode mode) {
  hier::HierOptions opts = cfg.hier;
  opts.mode = mode;
  return opts;
}

constexpr hier::CorrelationMode kModes[] = {
    hier::CorrelationMode::kReplacement, hier::CorrelationMode::kGlobalOnly};

/// One untraced pass: per circuit, load + assemble + both modes.
std::vector<timing::CanonicalForm> signoff_pass(const Fixture& fx,
                                                const flow::Config& cfg) {
  std::vector<timing::CanonicalForm> delays;
  for (const std::string& file : fx.files) {
    const flow::Design d = model_design(
        std::make_shared<const model::TimingModel>(
            model::TimingModel::load_file(file)),
        cfg);
    for (const hier::CorrelationMode mode : kModes)
      delays.push_back(d.analyze(mode_options(cfg, mode)).delay());
  }
  return delays;
}

/// hier::stitch_design, one public call per layer so each gets a span.
timing::CanonicalForm traced_analysis(const hier::HierDesign& design,
                                      const hier::HierOptions& opts,
                                      uint64_t request, Tracer& tr,
                                      size_t* design_dim) {
  std::optional<hier::StitchedDesign> st;
  {
    const Tracer::Scope s = tr.span("hier.stitch", request);
    design.validate();
    st.emplace();
    {
      const Tracer::Scope g = tr.span("hier.grid", request);
      st->grid = hier::build_design_grid(design);
    }
    const auto& insts = design.instances();
    const size_t num_params = insts.front().model->variation().space->num_params();
    std::vector<size_t> private_slot(insts.size(), 0);
    std::vector<size_t> private_components(insts.size(), 0);
    if (opts.mode == hier::CorrelationMode::kReplacement) {
      const Tracer::Scope p = tr.span("hier.design_pca", request);
      st->design_space = hier::build_design_space(design, st->grid, opts.pca);
      st->total_dim = st->design_space->dim();
      if (design_dim) *design_dim = st->total_dim;
    } else {
      st->total_dim = num_params;
      for (size_t t = 0; t < insts.size(); ++t) {
        private_slot[t] = st->total_dim;
        private_components[t] =
            insts[t].model->variation().space->num_components();
        st->total_dim += num_params * private_components[t];
      }
    }
    const std::vector<double> mult = hier::sigma_multipliers(
        opts, st->total_dim, num_params, st->design_space.get(), private_slot,
        private_components);
    timing::TimingGraph g = st->design_space
                                ? timing::TimingGraph(st->design_space)
                                : timing::TimingGraph(st->total_dim);
    st->instances.resize(insts.size());
    for (size_t t = 0; t < insts.size(); ++t) {
      const variation::VariationSpace& ms = *insts[t].model->variation().space;
      const hier::InstanceRemapper remap =
          opts.mode == hier::CorrelationMode::kReplacement
              ? hier::InstanceRemapper::replacement(
                    ms, *st->design_space, st->grid.instance_grids[t])
              : hier::InstanceRemapper::global_only(ms, st->total_dim,
                                                    num_params, private_slot[t]);
      hier::InstanceStitch& is = st->instances[t];
      is.r = remap.r();
      is.private_slot = private_slot[t];
      hier::stitch_instance_subgraph(g, insts[t], remap, mult, is);
    }
    for (const hier::Connection& c : design.connections())
      st->connection_edges.push_back(
          g.add_edge(st->output_vertex(design, c.from_output),
                     st->input_vertex(design, c.to_input),
                     hier::connection_delay(design, opts, c, st->total_dim)));
    for (const hier::PrimaryInput& pi : design.primary_inputs()) {
      const timing::VertexId v = g.add_vertex(pi.name, /*is_input=*/true);
      for (const hier::PortRef& r : pi.sinks)
        g.add_edge(v, st->input_vertex(design, r),
                   timing::CanonicalForm(st->total_dim));
    }
    for (const hier::PrimaryOutput& po : design.primary_outputs()) {
      const timing::VertexId v = g.add_vertex(po.name, false, /*is_output=*/true);
      g.add_edge(st->output_vertex(design, po.source), v,
                 timing::CanonicalForm(st->total_dim));
    }
    st->graph = std::move(g);
  }
  const Tracer::Scope s = tr.span("hier.propagate", request);
  return core::run_ssta(st->graph).delay;
}

std::vector<timing::CanonicalForm> traced_pass(const Fixture& fx,
                                               const flow::Config& cfg,
                                               Tracer& tr, size_t* design_dim) {
  std::vector<timing::CanonicalForm> delays;
  for (size_t idx = 0; idx < fx.files.size(); ++idx) {
    std::shared_ptr<const model::TimingModel> m;
    {
      const Tracer::Scope s = tr.span("model.load", idx);
      m = std::make_shared<const model::TimingModel>(
          model::TimingModel::load_file(fx.files[idx]));
    }
    std::optional<flow::Design> d;
    const hier::HierDesign* hd = nullptr;
    {
      const Tracer::Scope s = tr.span("hier.assemble", idx);
      d.emplace(model_design(m, cfg));
      hd = &d->hier();
    }
    for (const hier::CorrelationMode mode : kModes)
      delays.push_back(traced_analysis(*hd, mode_options(cfg, mode), idx, tr,
                                       idx == 0 ? design_dim : nullptr));
  }
  return delays;
}

/// The flattened 4 x c6288 Fig. 7 design that Monte Carlo samples.
mc::FlatCircuit flatten_fig7(const Fixture& fx, const flow::Config& cfg,
                             Tracer& tr) {
  const flow::Module m = *fx.c6288;
  const flow::Design d = fig7(
      m.model().die(), cfg,
      [&m](flow::Design& dd, double x, double y, std::string name) {
        return dd.add_instance(m, x, y, std::move(name));
      });
  const hier::HierDesign& hd = d.hier();
  const Tracer::Scope s = tr.span("mc.flatten");
  return mc::flatten_design(hd, hier::build_design_grid(hd));
}

}  // namespace

void run_signoff(const Options& o, Tracer& tr, Result& res, HostSpeed& host) {
  const flow::Config cfg = bench_config(o.threads);
  const Fixture fx =
      repeated_setup<Fixture>(res, 3, [&] { return setup(cfg); });
  const uint64_t mc_seed = Rng(o.seed ^ 0x6d6353656564ULL).next();
  const mc::FlatCircuit fc = flatten_fig7(fx, cfg, tr);
  exec::ThreadPoolExecutor pool(o.threads);
  (void)fc.sample_delay(64, mc_seed ^ 0x5a5a5a5aULL, pool);  // warm the pool

  // One untimed pass warms the allocator and gives the reference delays.
  const std::vector<timing::CanonicalForm> ref = signoff_pass(fx, cfg);
  res.attempt(ref.size());

  // Monte Carlo batches and pairs of signoff passes alternate until the
  // budget is spent, so both figures sample the same stretch of host time.
  // Batch k draws from mc_seed + k; the first kMcBatches batches are the
  // accuracy reference, so it depends only on the workload seed.
  stats::EmpiricalDistribution mc_ref;
  std::vector<double> mc_rate, pass_s;
  const Clock::time_point start = Clock::now();
  const double budget = o.trace ? 0.0 : o.seconds;
  for (size_t k = 0; k < kMcBatches || seconds_since(start) < budget; ++k) {
    host.sample();
    Clock::time_point t0 = Clock::now();
    const stats::EmpiricalDistribution batch = [&] {
      const Tracer::Scope s = tr.span("mc.sample", k);
      return fc.sample_delay(kMcBatchSamples, mc_seed + k, pool);
    }();
    mc_rate.push_back(static_cast<double>(kMcBatchSamples) /
                      seconds_since(t0));
    res.attempt();
    if (k < kMcBatches)
      for (const double x : batch.sorted()) mc_ref.add(x);
    for (int p = 0; p < 2; ++p) {
      t0 = Clock::now();
      const std::vector<timing::CanonicalForm> delays = signoff_pass(fx, cfg);
      pass_s.push_back(seconds_since(t0));
      res.attempt(delays.size());
      res.gate(delays == ref, "signoff delays identical across passes");
    }
  }
  const double pass_p50 = median(pass_s);
  const double rate_p50 = median(mc_rate);
  res.set("latency_p50_ms", 1e3 * pass_p50, "ms");
  res.set("latency_p90_ms", 1e3 * percentile(pass_s, 0.9), "ms");
  res.set("throughput_per_s", rate_p50, "1/s");
  res.set("hier_pass_s", pass_p50, "s");
  res.set("mc_samples_per_s", rate_p50, "1/s");
  res.set("passes", static_cast<double>(pass_s.size()), "count");

  // Accuracy of the replacement-mode 4 x c6288 analysis against MC.
  const timing::CanonicalForm& hier = ref.front();
  const double mu = hier.nominal(), sigma = hier.sigma();
  res.set("hier_sigma_err_pct",
          100.0 * std::abs(sigma - mc_ref.stddev()) / mc_ref.stddev(),
          "%");
  res.set("hier_ks",
          mc_ref.ks_distance(
              [&](double x) { return stats::normal_cdf((x - mu) / sigma); }),
          "ratio");
  if (!o.trace) return;

  size_t design_dim = 0;
  const Clock::time_point t0 = Clock::now();
  const std::vector<timing::CanonicalForm> traced = [&] {
    const Tracer::Scope s = tr.span("pass");
    return traced_pass(fx, cfg, tr, &design_dim);
  }();
  const double traced_s = seconds_since(t0);
  res.attempt(traced.size());
  res.gate(traced == ref, "layer-by-layer delays equal the pass delays");

  res.set("trace.overhead_pct.signoff",
          100.0 * (traced_s - pass_p50) / pass_p50, "%");
  res.set("model.load_s", tr.self("model.load"), "s");
  res.set("hier.assemble_s", tr.self("hier.assemble"), "s");
  res.set("hier.grid_s", tr.self("hier.grid"), "s");
  res.set("hier.design_pca_s", tr.self("hier.design_pca"), "s");
  res.set("hier.stitch_s", tr.self("hier.stitch"), "s");
  res.set("hier.propagate_s", tr.self("hier.propagate"), "s");
  res.set("hier.design_dim", static_cast<double>(design_dim), "count");
  res.set("mc.flatten_s", tr.self("mc.flatten"), "s");
  res.set("mc.sample_s", tr.self("mc.sample"), "s");
}

}  // namespace perfbench
