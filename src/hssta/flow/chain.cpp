#include "hssta/flow/chain.hpp"

#include <optional>
#include <set>
#include <utility>

#include "hssta/flow/detect.hpp"
#include "hssta/util/error.hpp"

namespace hssta::flow {

bool is_model_file(const std::string& path) {
  // Content beats extension (detect.hpp); the extension decides only when
  // the file cannot be read yet — the error then surfaces from the actual
  // load with its own message.
  try {
    return detect_file_format(path) == FileFormat::kHstm;
  } catch (const Error&) {
    return path.ends_with(".hstm");
  }
}

std::shared_ptr<const model::TimingModel> load_variant_model(
    const std::string& file, const Config& cfg) {
  if (is_model_file(file))
    return std::make_shared<const model::TimingModel>(
        model::TimingModel::load_file(file));
  return Module::from_file(file, cfg).model_ptr();
}

namespace {

/// The .hstm models of one build call: the first instance of a path gets
/// its parse, each later one its own copy (saved sessions and checks key
/// models by pointer), sharing the parse's saved text.
class ModelFiles {
 public:
  std::shared_ptr<const model::TimingModel> get(const std::string& file) {
    const auto it = parsed_.find(file);
    if (it != parsed_.end())
      return std::make_shared<const model::TimingModel>(*it->second);
    auto parsed = std::make_shared<const model::TimingModel>(
        model::TimingModel::load_file(file));
    parsed_.emplace(file, parsed);
    return parsed;
  }

 private:
  std::map<std::string, std::shared_ptr<const model::TimingModel>> parsed_;
};

/// Add instance `idx` from `file` at the default origin (ox, oy), honoring
/// any model/origin overrides; returns the instance index.
size_t add_instance_at(Design& design, const std::string& file, size_t idx,
                       double ox, double oy, const Config& cfg,
                       const ChainOverrides& overrides, ModelFiles& models) {
  const auto model_it = overrides.models.find(idx);
  const auto origin_it = overrides.origins.find(idx);
  if (origin_it != overrides.origins.end()) {
    ox = origin_it->second.x;
    oy = origin_it->second.y;
  }
  if (model_it != overrides.models.end())
    return design.add_instance(model_it->second, ox, oy);
  if (is_model_file(file)) {
    const std::string index = std::to_string(idx);
    return design.add_instance(models.get(file), ox, oy, "u" + index);
  }
  return design.add_instance(Module::from_file(file, cfg), ox, oy);
}

/// Wire the deterministic base connection list (with rewires applied by
/// index) and expose the *base* topology's unwired boundary ports as
/// primary ports (expose_unconnected_ports naming), so rewired/unmodified
/// builds share one port list — exactly like the incremental engine.
void wire_and_expose(Design& design,
                     const std::vector<hier::Connection>& base_conns,
                     const std::map<size_t, hier::Connection>& rewires) {
  for (size_t c = 0; c < base_conns.size(); ++c) {
    const auto it = rewires.find(c);
    const hier::Connection& cn =
        it != rewires.end() ? it->second : base_conns[c];
    design.connect(cn.from_output.instance, cn.from_output.port,
                   cn.to_input.instance, cn.to_input.port);
  }
  std::set<std::pair<size_t, size_t>> driven, read;
  for (const hier::Connection& cn : base_conns) {
    driven.insert({cn.to_input.instance, cn.to_input.port});
    read.insert({cn.from_output.instance, cn.from_output.port});
  }
  for (size_t i = 0; i < design.num_instances(); ++i) {
    for (size_t k = 0; k < design.num_inputs(i); ++k)
      if (!driven.count({i, k}))
        design.primary_input(
            design.instance_name(i) + "_i" + std::to_string(k), i, k);
    for (size_t k = 0; k < design.num_outputs(i); ++k)
      if (!read.count({i, k}))
        design.primary_output(
            design.instance_name(i) + "_o" + std::to_string(k), i, k);
  }
}

}  // namespace

Design build_chain_design(const std::string& name,
                          const std::vector<std::string>& files,
                          const Config& cfg, const ChainOverrides& overrides) {
  Design design(name, cfg);
  ModelFiles models;
  double x = 0.0;
  for (size_t idx = 0; idx < files.size(); ++idx) {
    const size_t got = add_instance_at(design, files[idx], idx, x, 0.0, cfg,
                                       overrides, models);
    x += design.instance_model(got).die().width;
  }

  // The base chain's connection list (deterministic), then any rewires.
  std::vector<hier::Connection> base_conns;
  for (size_t i = 0; i + 1 < design.num_instances(); ++i) {
    const size_t no = design.num_outputs(i);
    const size_t ni = design.num_inputs(i + 1);
    if (no == 0)
      throw Error("cannot chain: module '" + design.instance_name(i) +
                  "' has no outputs");
    for (size_t k = 0; k < ni; ++k)
      base_conns.push_back(hier::Connection{hier::PortRef{i, k % no},
                                            hier::PortRef{i + 1, k}});
  }
  wire_and_expose(design, base_conns, overrides.rewires);
  return design;
}

Design build_star_design(const std::string& name,
                         const std::vector<std::string>& files,
                         const Config& cfg) {
  if (files.size() < 2)
    throw Error("star topology needs at least two modules (leaves + hub)");
  Design design(name, cfg);
  ModelFiles models;
  for (size_t idx = 0; idx < files.size(); ++idx) {
    // 4-wide grid, each instance offset by its own die — identical models
    // tile exactly. Placement needs the die before the add, so the
    // model/module resolves first (extraction is cache-aware either way).
    const std::string& file = files[idx];
    std::shared_ptr<const model::TimingModel> model;
    std::optional<Module> module;
    if (is_model_file(file))
      model = models.get(file);
    else
      module.emplace(Module::from_file(file, cfg));
    const placement::Die& die = model ? model->die() : module->model().die();
    const double x = static_cast<double>(idx % 4) * die.width;
    const double y = static_cast<double>(idx / 4) * die.height;
    if (model) {
      const std::string index = std::to_string(idx);
      design.add_instance(std::move(model), x, y, "u" + index);
    } else {
      design.add_instance(*module, x, y);
    }
  }

  // Every hub input driven round-robin from the leaves.
  const size_t hub = design.num_instances() - 1;
  std::vector<hier::Connection> base_conns;
  for (size_t k = 0; k < design.num_inputs(hub); ++k) {
    const size_t leaf = k % hub;
    const size_t no = design.num_outputs(leaf);
    if (no == 0)
      throw Error("cannot build star: module '" + design.instance_name(leaf) +
                  "' has no outputs");
    base_conns.push_back(
        hier::Connection{hier::PortRef{leaf, k % no}, hier::PortRef{hub, k}});
  }
  wire_and_expose(design, base_conns, {});
  return design;
}

}  // namespace hssta::flow
