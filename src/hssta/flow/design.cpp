#include "hssta/flow/design.hpp"

#include <algorithm>
#include <set>
#include <utility>

#include "hssta/util/error.hpp"

namespace hssta::flow {

namespace {
using StateLock = std::lock_guard<std::recursive_mutex>;
}  // namespace

const model::TimingModel& Design::Instance::timing_model() const {
  return module ? module->model() : *model;
}

Design::Design(std::string name, Config cfg)
    : name_(std::move(name)), cfg_(std::move(cfg)) {}

Design::Design(std::string name, placement::Die die, Config cfg)
    : name_(std::move(name)), cfg_(std::move(cfg)), fixed_die_(die) {}

Design::Design(Design&& other) noexcept
    : name_(std::move(other.name_)),
      cfg_(std::move(other.cfg_)),
      fixed_die_(other.fixed_die_),
      instances_(std::move(other.instances_)),
      connections_(std::move(other.connections_)),
      inputs_(std::move(other.inputs_)),
      outputs_(std::move(other.outputs_)),
      exec_(std::move(other.exec_)),
      hier_(std::move(other.hier_)),
      results_(std::move(other.results_)),
      flat_(std::move(other.flat_)),
      mc_(std::move(other.mc_)),
      incr_(std::move(other.incr_)) {}

size_t Design::add_instance(const Module& module, double x, double y,
                            std::string name) {
  invalidate();
  if (name.empty()) {
    const std::string index = std::to_string(instances_.size());
    name = "u" + index;
  }
  instances_.push_back(
      Instance{std::move(name), module, nullptr, placement::Point{x, y}});
  return instances_.size() - 1;
}

size_t Design::add_instance(std::shared_ptr<const model::TimingModel> model,
                            double x, double y, std::string name) {
  HSSTA_REQUIRE(model != nullptr, "add_instance: null model");
  invalidate();
  if (name.empty()) {
    const std::string index = std::to_string(instances_.size());
    name = "u" + index;
  }
  instances_.push_back(Instance{std::move(name), std::nullopt,
                                std::move(model), placement::Point{x, y}});
  return instances_.size() - 1;
}

size_t Design::add_instance_from_model_file(const std::string& path, double x,
                                            double y, std::string name) {
  auto model = std::make_shared<const model::TimingModel>(
      model::TimingModel::load_file(path));
  if (name.empty()) name = model->name();
  return add_instance(std::move(model), x, y, std::move(name));
}

void Design::connect(size_t from, size_t from_port, size_t to,
                     size_t to_port) {
  HSSTA_REQUIRE(from < instances_.size() && to < instances_.size(),
                "connect: instance index out of range");
  invalidate();
  connections_.push_back(hier::Connection{hier::PortRef{from, from_port},
                                          hier::PortRef{to, to_port}});
}

void Design::primary_input(const std::string& name, size_t inst,
                           size_t port) {
  HSSTA_REQUIRE(inst < instances_.size(),
                "primary_input: instance index out of range");
  invalidate();
  const hier::PortRef sink{inst, port};
  for (hier::PrimaryInput& pi : inputs_) {
    if (pi.name == name) {
      pi.sinks.push_back(sink);
      return;
    }
  }
  inputs_.push_back(hier::PrimaryInput{name, {sink}});
}

void Design::primary_output(const std::string& name, size_t inst,
                            size_t port) {
  HSSTA_REQUIRE(inst < instances_.size(),
                "primary_output: instance index out of range");
  invalidate();
  outputs_.push_back(hier::PrimaryOutput{name, hier::PortRef{inst, port}});
}

void Design::expose_unconnected_ports() {
  invalidate();
  std::set<std::pair<size_t, size_t>> driven_inputs;
  std::set<std::pair<size_t, size_t>> read_outputs;
  for (const hier::Connection& c : connections_) {
    driven_inputs.emplace(c.to_input.instance, c.to_input.port);
    read_outputs.emplace(c.from_output.instance, c.from_output.port);
  }
  for (const hier::PrimaryInput& pi : inputs_)
    for (const hier::PortRef& s : pi.sinks)
      driven_inputs.emplace(s.instance, s.port);
  for (const hier::PrimaryOutput& po : outputs_)
    read_outputs.emplace(po.source.instance, po.source.port);

  for (size_t i = 0; i < instances_.size(); ++i) {
    const Instance& inst = instances_[i];
    for (size_t p = 0; p < num_inputs(i); ++p)
      if (!driven_inputs.count({i, p}))
        inputs_.push_back(hier::PrimaryInput{
            inst.name + "_i" + std::to_string(p), {hier::PortRef{i, p}}});
    for (size_t p = 0; p < num_outputs(i); ++p)
      if (!read_outputs.count({i, p}))
        outputs_.push_back(hier::PrimaryOutput{
            inst.name + "_o" + std::to_string(p), hier::PortRef{i, p}});
  }
}

const Design::Instance& Design::instance(size_t inst) const {
  HSSTA_REQUIRE(inst < instances_.size(), "instance index out of range");
  return instances_[inst];
}

const std::string& Design::instance_name(size_t inst) const {
  return instance(inst).name;
}

const model::TimingModel& Design::instance_model(size_t inst) const {
  return instance(inst).timing_model();
}

size_t Design::num_inputs(size_t inst) const {
  return instance(inst).timing_model().graph().inputs().size();
}

size_t Design::num_outputs(size_t inst) const {
  return instance(inst).timing_model().graph().outputs().size();
}

bool Design::can_monte_carlo() const {
  return std::all_of(instances_.begin(), instances_.end(),
                     [](const Instance& i) { return i.module.has_value(); });
}

cache::CacheStats Design::cache_stats() const {
  cache::CacheStats total;
  std::set<const void*> seen;
  for (const Instance& inst : instances_) {
    if (!inst.module) continue;
    if (seen.insert(inst.module->state_.get()).second)
      total += inst.module->cache_stats();
  }
  return total;
}

void Design::invalidate() {
  const StateLock lock(mu_);
  hier_.reset();
  results_.clear();
  flat_.reset();
  mc_.clear();
  incr_.reset();
}

exec::Executor& Design::executor() const {
  if (!exec_) exec_ = exec::make_executor(cfg_.threads);
  return *exec_;
}

void Design::prefill_models() const {
  // Collect the distinct module states that still need extraction (shared
  // handles dedupe to one task; model-only instances have nothing to do).
  std::vector<const Module*> todo;
  std::set<const void*> seen;
  for (const Instance& inst : instances_) {
    if (!inst.module) continue;
    if (seen.insert(inst.module->state_.get()).second)
      todo.push_back(&*inst.module);
  }
  if (todo.size() < 2) {
    // A single module extracts on its own executor — no sharding level.
    for (const Module* m : todo) (void)m->extract_model();
    return;
  }
  // Shard per instance-module across the design executor; each task
  // extracts serially (a pool's regions do not nest), and the module caches
  // make every later model() call a lookup.
  executor().parallel_for(todo.size(), [&](size_t k, size_t) {
    (void)todo[k]->extract_model(todo[k]->config().extract, exec::serial());
  });
}

hier::HierDesign Design::assemble_hier() const {
  prefill_models();

  placement::Die die;
  if (fixed_die_) {
    die = *fixed_die_;
  } else {
    double w = 0.0, h = 0.0;
    for (const Instance& inst : instances_) {
      const placement::Die& mdie = inst.timing_model().die();
      w = std::max(w, inst.origin.x + mdie.width);
      h = std::max(h, inst.origin.y + mdie.height);
    }
    die = placement::Die{w, h};
  }

  hier::HierDesign d(name_, die);
  for (const Instance& inst : instances_) {
    const netlist::Netlist* nl =
        inst.module ? &inst.module->netlist() : nullptr;
    const placement::Placement* pl =
        inst.module ? &inst.module->placement() : nullptr;
    d.add_instance(hier::ModuleInstance{inst.name, &inst.timing_model(),
                                        inst.origin, nl, pl});
  }
  for (const hier::Connection& c : connections_) d.add_connection(c);
  for (const hier::PrimaryInput& pi : inputs_) d.add_primary_input(pi);
  for (const hier::PrimaryOutput& po : outputs_) d.add_primary_output(po);
  return d;
}

const hier::HierDesign& Design::hier() const {
  const StateLock lock(mu_);
  if (hier_) return *hier_;
  HSSTA_REQUIRE(!instances_.empty(), "design '" + name_ + "' has no instances");
  hier::HierDesign d = assemble_hier();
  d.validate();
  hier_ = std::move(d);
  return *hier_;
}

check::Report Design::check() const {
  check::CheckOptions opts;
  opts.severity = cfg_.check_severity;
  return check(opts);
}

check::Report Design::check(const check::CheckOptions& opts) const {
  const StateLock lock(mu_);
  // Assemble fresh rather than through hier(): that accessor validates
  // (throws), and the whole point here is to diagnose designs that would
  // not survive validation.
  const hier::HierDesign d = assemble_hier();
  return check::run_checks(d, cfg_.hier, opts, executor());
}

const hier::HierResult& Design::analyze() const { return analyze(cfg_.hier); }

const hier::HierResult& Design::analyze(const hier::HierOptions& opts) const {
  const StateLock lock(mu_);
  const HierKey key{static_cast<int>(opts.mode), opts.load_aware_boundary,
                    opts.interconnect_delay, opts.pca.min_explained,
                    opts.pca.rel_tol, opts.pca.max_components,
                    opts.param_sigma_scale};
  auto it = results_.find(key);
  if (it == results_.end())
    // hier() shards the per-instance model extraction across the design
    // executor before the serial stitching pass runs here.
    it = results_.emplace(key, hier::analyze_hierarchical(hier(), opts))
             .first;
  return it->second;
}

const timing::CanonicalForm& Design::delay() const {
  return analyze().delay();
}

const mc::FlatCircuit& Design::flat_circuit() const {
  const StateLock lock(mu_);
  if (!flat_) {
    HSSTA_REQUIRE(can_monte_carlo(),
                  "design '" + name_ +
                      "': Monte Carlo needs every instance's source "
                      "netlist; an instance built from a model file "
                      "cannot be flattened");
    const hier::DesignGrid grid = hier::build_design_grid(hier());
    mc::FlattenOptions fopts;
    fopts.interconnect_delay = cfg_.hier.interconnect_delay;
    fopts.load_aware_boundary = cfg_.hier.load_aware_boundary;
    flat_ = mc::flatten_design(hier(), grid, fopts);
  }
  return *flat_;
}

const stats::EmpiricalDistribution& Design::monte_carlo() const {
  return monte_carlo(cfg_.mc);
}

incr::DesignState& Design::incremental() const {
  const StateLock lock(mu_);
  if (incr_) return *incr_;
  (void)hier();  // prefill models and validate the assembled structure
  incr::DesignInputs in;
  in.name = name_;
  in.fixed_die = fixed_die_;
  for (const Instance& inst : instances_) {
    // Module-backed instances hand out an aliasing pointer into the module
    // state, so the engine keeps the module (and its model) alive.
    std::shared_ptr<const model::TimingModel> m =
        inst.module ? std::shared_ptr<const model::TimingModel>(
                          inst.module->state_, &inst.module->model())
                    : inst.model;
    in.instances.push_back(
        incr::InstanceSpec{inst.name, std::move(m), inst.origin});
  }
  in.connections = connections_;
  in.primary_inputs = inputs_;
  in.primary_outputs = outputs_;
  incr_.emplace(std::move(in), cfg_.hier);
  (void)incr_->analyze();
  return *incr_;
}

const timing::CanonicalForm& Design::analyze_incremental() const {
  const StateLock lock(mu_);
  return incremental().analyze();
}

std::vector<incr::ScenarioResult> Design::scenarios(
    std::span<const incr::Scenario> list) const {
  const StateLock lock(mu_);
  incr::DesignState& base = incremental();
  (void)base.analyze();  // flush user changes so the base is clean
  const incr::ScenarioRunner runner(base);
  return runner.run(list, executor());
}

const stats::EmpiricalDistribution& Design::monte_carlo(
    const McOptions& opts) const {
  const StateLock lock(mu_);
  const McKey key{opts.samples, opts.seed};
  auto it = mc_.find(key);
  if (it == mc_.end())
    it = mc_.emplace(key, flat_circuit().sample_delay(opts.samples, opts.seed,
                                                      executor()))
             .first;
  return it->second;
}

}  // namespace hssta::flow
