#include "hssta/hier/design_grid.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>

#include "hssta/util/error.hpp"

namespace hssta::hier {

using placement::Point;
using variation::GridGeometry;
using variation::GridPartition;

namespace {

bool inside(const Point& p, const Point& origin, const placement::Die& die) {
  return p.x >= origin.x && p.x <= origin.x + die.width && p.y >= origin.y &&
         p.y <= origin.y + die.height;
}

/// The module space every instance shares, after checking that all
/// instances analyze the same parameters under the same profile.
const variation::VariationSpace& reference_space(const HierDesign& design) {
  const variation::VariationSpace& ref =
      *design.instances().front().model->variation().space;
  for (const ModuleInstance& inst : design.instances()) {
    const variation::VariationSpace& s = *inst.model->variation().space;
    HSSTA_REQUIRE(s.num_params() == ref.num_params(),
                  "instances disagree on the parameter set");
    for (size_t p = 0; p < ref.num_params(); ++p)
      HSSTA_REQUIRE(s.parameters().at(p).name == ref.parameters().at(p).name &&
                        std::abs(s.parameters().at(p).sigma_rel -
                                 ref.parameters().at(p).sigma_rel) < 1e-12,
                    "instances disagree on parameter " +
                        ref.parameters().at(p).name);
    const auto& ca = s.correlation_model().config();
    const auto& cb = ref.correlation_model().config();
    HSSTA_REQUIRE(std::abs(ca.rho_neighbor - cb.rho_neighbor) < 1e-12 &&
                      std::abs(ca.rho_global - cb.rho_global) < 1e-12 &&
                      std::abs(ca.cutoff - cb.cutoff) < 1e-12,
                  "instances disagree on the correlation profile");
  }
  return ref;
}

bool same_bits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

/// Would VariationSpace's constructor, given `params`, `geometry`, `cfg`
/// and `pca`, build exactly `space` (built with `space_pca`)? Bitwise on
/// every input it reads.
bool same_inputs(const variation::VariationSpace& space,
                 const linalg::PcaOptions& space_pca,
                 const variation::ParameterSet& params,
                 const GridGeometry& geometry,
                 const variation::SpatialCorrelationConfig& cfg,
                 const linalg::PcaOptions& pca) {
  const variation::ParameterSet& sp = space.parameters();
  if (sp.size() != params.size() ||
      !same_bits(sp.load_sigma_rel, params.load_sigma_rel))
    return false;
  for (size_t p = 0; p < params.size(); ++p) {
    const variation::ProcessParameter& a = sp.at(p);
    const variation::ProcessParameter& b = params.at(p);
    if (a.name != b.name || !same_bits(a.sigma_rel, b.sigma_rel) ||
        !same_bits(a.global_frac, b.global_frac) ||
        !same_bits(a.local_frac, b.local_frac) ||
        !same_bits(a.random_frac, b.random_frac))
      return false;
  }
  const GridGeometry& sg = space.grids();
  if (!same_bits(sg.unit, geometry.unit) ||
      sg.centers.size() != geometry.centers.size())
    return false;
  for (size_t g = 0; g < geometry.centers.size(); ++g)
    if (!same_bits(sg.centers[g].x, geometry.centers[g].x) ||
        !same_bits(sg.centers[g].y, geometry.centers[g].y))
      return false;
  const variation::SpatialCorrelationConfig& sc =
      space.correlation_model().config();
  return same_bits(sc.rho_neighbor, cfg.rho_neighbor) &&
         same_bits(sc.rho_global, cfg.rho_global) &&
         same_bits(sc.cutoff, cfg.cutoff) &&
         same_bits(space_pca.min_explained, pca.min_explained) &&
         same_bits(space_pca.rel_tol, pca.rel_tol) &&
         space_pca.max_components == pca.max_components;
}

}  // namespace

size_t DesignGrid::grid_of(const Point& p, const HierDesign& design) const {
  const auto& instances = design.instances();
  for (size_t t = 0; t < instances.size(); ++t) {
    const ModuleInstance& inst = instances[t];
    if (!inside(p, inst.origin, inst.model->die())) continue;
    const Point local{p.x - inst.origin.x, p.y - inst.origin.y};
    return instance_grids[t][inst.model->variation().partition.grid_of(local)];
  }
  // Not inside any module: nearest center, preferring filler grids.
  HSSTA_REQUIRE(!geometry.centers.empty(), "design grid is empty");
  const size_t begin_filler = geometry.size() - filler_count;
  size_t best = 0;
  double best_d = std::numeric_limits<double>::infinity();
  const size_t start = filler_count > 0 ? begin_filler : 0;
  const size_t stop = filler_count > 0 ? geometry.size() : geometry.size();
  for (size_t g = start; g < stop; ++g) {
    const double dx = geometry.centers[g].x - p.x;
    const double dy = geometry.centers[g].y - p.y;
    const double d = dx * dx + dy * dy;
    if (d < best_d) {
      best_d = d;
      best = g;
    }
  }
  return best;
}

DesignGrid build_design_grid(const HierDesign& design) {
  design.validate();
  const auto& instances = design.instances();

  // All modules must share the default grid pitch.
  const GridPartition& first = instances.front().model->variation().partition;
  const double unit =
      std::sqrt(first.pitch_x() * first.pitch_y());
  for (const ModuleInstance& inst : instances) {
    const GridPartition& part = inst.model->variation().partition;
    const double u = std::sqrt(part.pitch_x() * part.pitch_y());
    HSSTA_REQUIRE(std::abs(u - unit) <= 1e-6 * unit,
                  "instances must share one grid pitch (got a mismatch on " +
                      inst.name + ")");
  }

  // Count the grids before any cast or allocation: a far placement
  // stretches the die, and the filler grid with it, without bound.
  const placement::Die& die = design.die();
  const double cells_x = std::max(1.0, std::ceil(die.width / first.pitch_x()));
  const double cells_y =
      std::max(1.0, std::ceil(die.height / first.pitch_y()));
  double count = cells_x * cells_y;
  for (const ModuleInstance& inst : instances)
    count +=
        static_cast<double>(inst.model->variation().partition.num_grids());
  if (!(count <= static_cast<double>(kMaxDesignGrids))) {
    char msg[160];
    std::snprintf(msg, sizeof msg,
                  "design needs %.6g grids (module grids plus filler), "
                  "above the limit of %zu (hier::kMaxDesignGrids)",
                  count, kMaxDesignGrids);
    throw Error(msg);
  }

  DesignGrid out;
  out.geometry.unit = unit;

  // Module grids, translated to their instance origins.
  for (const ModuleInstance& inst : instances) {
    const GridPartition& part = inst.model->variation().partition;
    std::vector<size_t> map;
    map.reserve(part.num_grids());
    for (size_t gidx = 0; gidx < part.num_grids(); ++gidx) {
      const Point c = part.center(gidx);
      map.push_back(out.geometry.centers.size());
      out.geometry.centers.push_back(
          Point{c.x + inst.origin.x, c.y + inst.origin.y});
    }
    out.instance_grids.push_back(std::move(map));
  }

  // Filler: default-pitch regular grid over the die, keeping cells whose
  // center lies outside every module outline.
  const GridPartition filler(die, static_cast<size_t>(cells_x),
                             static_cast<size_t>(cells_y));
  for (size_t gidx = 0; gidx < filler.num_grids(); ++gidx) {
    const Point c = filler.center(gidx);
    bool covered = false;
    for (const ModuleInstance& inst : instances)
      covered = covered || inside(c, inst.origin, inst.model->die());
    if (!covered) {
      out.geometry.centers.push_back(c);
      ++out.filler_count;
    }
  }
  return out;
}

std::shared_ptr<const variation::VariationSpace> build_design_space(
    const HierDesign& design, const DesignGrid& grid,
    linalg::PcaOptions pca_opts) {
  const variation::VariationSpace& ref = reference_space(design);
  return std::make_shared<const variation::VariationSpace>(
      ref.parameters(), grid.geometry, ref.correlation_model().config(),
      pca_opts);
}

std::shared_ptr<const variation::VariationSpace> DesignSpaceTable::get(
    const HierDesign& design, const DesignGrid& grid,
    linalg::PcaOptions pca_opts) {
  const variation::VariationSpace& ref = reference_space(design);
  auto find = [&]() -> std::shared_ptr<const variation::VariationSpace> {
    for (const Entry& e : entries_)
      if (auto live = e.space.lock();
          live && same_inputs(*live, e.pca, ref.parameters(), grid.geometry,
                              ref.correlation_model().config(), pca_opts))
        return live;
    return nullptr;
  };
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (auto hit = find()) return hit;
  }
  auto built = build_design_space(design, grid, pca_opts);
  std::lock_guard<std::mutex> lock(mu_);
  std::erase_if(entries_, [](const Entry& e) { return e.space.expired(); });
  // A concurrent miss on equal inputs may have landed first; it wins.
  if (auto live = find()) return live;
  entries_.push_back(Entry{pca_opts, built});
  return built;
}

}  // namespace hssta::hier
