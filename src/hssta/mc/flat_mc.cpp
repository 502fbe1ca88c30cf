#include "hssta/mc/flat_mc.hpp"

#include <cmath>

#include "hssta/linalg/cholesky.hpp"
#include "hssta/stats/empirical.hpp"
#include "hssta/timing/sta.hpp"
#include "hssta/util/error.hpp"

namespace hssta::mc {

using timing::EdgeId;
using timing::TimingGraph;
using timing::VertexId;

size_t IoStats::idx(size_t i, size_t j) const {
  HSSTA_REQUIRE(i < num_inputs && j < num_outputs,
                "IO stats index out of range");
  return i * num_outputs + j;
}

bool IoStats::is_valid(size_t i, size_t j) const { return valid[idx(i, j)]; }

double IoStats::mean_at(size_t i, size_t j) const {
  const size_t k = idx(i, j);
  HSSTA_REQUIRE(valid[k], "unconnected IO pair");
  return mean[k];
}

double IoStats::sigma_at(size_t i, size_t j) const {
  const size_t k = idx(i, j);
  HSSTA_REQUIRE(valid[k], "unconnected IO pair");
  return sigma[k];
}

FlatCircuit::FlatCircuit(variation::ParameterSet params,
                         linalg::Matrix grid_correlation, double load_sigma)
    : structure_(size_t{0}),
      params_(std::move(params)),
      chol_(linalg::cholesky(grid_correlation)),
      load_sigma_(load_sigma) {
  params_.validate();
}

VertexId FlatCircuit::add_vertex(std::string name, bool is_input,
                                 bool is_output) {
  return structure_.add_vertex(std::move(name), is_input, is_output);
}

void FlatCircuit::add_arc(VertexId from, VertexId to, double nominal,
                          double load_term, size_t grid,
                          std::vector<double> sens) {
  HSSTA_REQUIRE(sens.size() == params_.size(),
                "need one sensitivity per parameter");
  HSSTA_REQUIRE(grid < num_grids(), "arc grid out of range");
  const EdgeId e = structure_.add_edge(from, to, timing::CanonicalForm(0));
  HSSTA_ASSERT(e == nominal_.size(), "arc bookkeeping out of sync");
  nominal_.push_back(nominal);
  load_term_.push_back(load_term);
  grid_.push_back(grid);
  sens_.insert(sens_.end(), sens.begin(), sens.end());
}

void FlatCircuit::add_constant_arc(VertexId from, VertexId to, double nominal,
                                   double load_sigma_term) {
  add_arc(from, to, nominal, load_sigma_term > 0.0 ? load_sigma_term : 0.0,
          0, std::vector<double>(params_.size(), 0.0));
}

FlatCircuit FlatCircuit::from_module(const timing::BuiltGraph& built,
                                     const netlist::Netlist& nl,
                                     const variation::ModuleVariation& mv) {
  FlatCircuit fc(mv.space->parameters(), mv.space->correlation(),
                 mv.space->parameters().load_sigma_rel);
  const TimingGraph& g = built.graph;
  const size_t num_params = fc.params_.size();

  std::vector<VertexId> vmap(g.num_vertex_slots(), timing::kNoVertex);
  for (VertexId v = 0; v < g.num_vertex_slots(); ++v) {
    if (!g.vertex_alive(v)) continue;
    const timing::TimingVertex& tv = g.vertex(v);
    vmap[v] = fc.add_vertex(tv.name, tv.is_input, tv.is_output);
  }
  for (EdgeId e = 0; e < g.num_edge_slots(); ++e) {
    if (!g.edge_alive(e)) continue;
    const timing::TimingEdge& te = g.edge(e);
    const timing::EdgeSite& site = built.sites[e];
    const library::CellType& type = *nl.gate(site.gate).type;
    std::vector<double> sens(num_params, 0.0);
    for (size_t p = 0; p < num_params; ++p)
      sens[p] = site.nominal * type.sensitivity(fc.params_.at(p).name);
    fc.add_arc(vmap[te.from], vmap[te.to], site.nominal,
               type.drive_res * site.load, site.grid, std::move(sens));
  }
  return fc;
}

void FlatCircuit::draw_deviates(stats::Rng& rng, std::vector<double>& global,
                                linalg::Matrix& local) const {
  const size_t num_params = params_.size();
  const size_t n = num_grids();
  global.resize(num_params);
  if (local.rows() != num_params || local.cols() != n)
    local = linalg::Matrix(num_params, n);

  std::vector<double> z(n);
  for (size_t p = 0; p < num_params; ++p) {
    const variation::ProcessParameter& param = params_.at(p);
    global[p] = param.sigma_global() * rng.normal();
    for (double& v : z) v = rng.normal();
    // local = sigma_l * L * z with the exact grid covariance.
    const double sl = param.sigma_local();
    for (size_t r = 0; r < n; ++r) {
      double acc = 0.0;
      const std::span<const double> row = chol_.row(r);
      for (size_t c = 0; c <= r; ++c) acc += row[c] * z[c];
      local(p, r) = sl * acc;
    }
  }
}

void FlatCircuit::evaluate_edges(stats::Rng& rng, McEvalScratch& sc) const {
  draw_deviates(rng, sc.global, sc.local);

  const size_t num_params = params_.size();
  sc.delays.resize(nominal_.size());
  for (size_t e = 0; e < nominal_.size(); ++e) {
    double d = nominal_[e];
    const double* sens = sens_.data() + e * num_params;
    for (size_t p = 0; p < num_params; ++p) {
      if (sens[p] == 0.0) continue;
      const double dev = sc.global[p] + sc.local(p, grid_[e]) +
                         params_.at(p).sigma_random() * rng.normal();
      d += sens[p] * dev;
    }
    if (load_term_[e] != 0.0)
      d += load_term_[e] * load_sigma_ * rng.normal();
    sc.delays[e] = d;
  }
}

stats::EmpiricalDistribution FlatCircuit::sample_delay_with_base(
    size_t samples, uint64_t base, exec::Executor& ex) const {
  HSSTA_REQUIRE(samples > 0, "need at least one sample");
  // Sample s depends only on (base, s): the batch can be partitioned
  // across threads arbitrarily and still fill the same slot values.
  std::vector<double> values(samples);
  std::vector<McEvalScratch> scratch(ex.concurrency());
  ex.parallel_for(samples, [&](size_t s, size_t slot) {
    McEvalScratch& sc = scratch[slot];
    stats::Rng rng = stats::Rng::from_counter(base, s);
    evaluate_edges(rng, sc);
    values[s] = timing::longest_path(structure_, sc.delays)
                    .max_over_outputs(structure_);
  });
  return stats::EmpiricalDistribution(std::move(values));
}

stats::EmpiricalDistribution FlatCircuit::sample_delay(
    size_t samples, stats::Rng& rng, exec::Executor& ex) const {
  // Validate before drawing the stream base so a failed call leaves the
  // caller's generator untouched.
  HSSTA_REQUIRE(samples > 0, "need at least one sample");
  return sample_delay_with_base(samples, rng.next_u64(), ex);
}

stats::EmpiricalDistribution FlatCircuit::sample_delay(
    size_t samples, uint64_t seed, exec::Executor& ex) const {
  stats::Rng seeder(seed);
  return sample_delay_with_base(samples, seeder.next_u64(), ex);
}

IoStats FlatCircuit::sample_io_delays(size_t samples, stats::Rng& rng) const {
  HSSTA_REQUIRE(samples > 0, "need at least one sample");
  const auto& ins = structure_.inputs();
  const auto& outs = structure_.outputs();
  IoStats st;
  st.num_inputs = ins.size();
  st.num_outputs = outs.size();
  const size_t cells = ins.size() * outs.size();
  st.valid.assign(cells, 0);
  st.mean.assign(cells, 0.0);
  st.sigma.assign(cells, 0.0);
  std::vector<double> m2(cells, 0.0);

  // Per input, precompute its reachable cone as a flat edge list in target
  // topological order: the per-sample inner loop then touches exactly the
  // edges that matter, with no validity branches or array resets (stamps).
  struct ConeEdge {
    VertexId from, to;
    EdgeId e;
  };
  const std::vector<VertexId>& order = structure_.topo_order();
  std::vector<std::vector<ConeEdge>> cone(ins.size());
  std::vector<std::vector<std::pair<size_t, VertexId>>> cone_outs(ins.size());
  {
    std::vector<uint8_t> reach(structure_.num_vertex_slots(), 0);
    for (size_t i = 0; i < ins.size(); ++i) {
      std::fill(reach.begin(), reach.end(), 0);
      reach[ins[i]] = 1;
      for (VertexId v : order) {
        for (EdgeId e : structure_.vertex(v).fanin) {
          const VertexId u = structure_.edge(e).from;
          if (!reach[u]) continue;
          reach[v] = 1;
          cone[i].push_back(ConeEdge{u, v, e});
        }
      }
      for (size_t j = 0; j < outs.size(); ++j)
        if (reach[outs[j]]) {
          cone_outs[i].emplace_back(j, outs[j]);
          st.valid[i * outs.size() + j] = 1;
        }
    }
  }

  const uint64_t base = rng.next_u64();
  McEvalScratch sc;
  std::vector<double> time(structure_.num_vertex_slots(), 0.0);
  std::vector<uint32_t> stamp(structure_.num_vertex_slots(), 0);
  uint32_t token = 0;
  for (size_t s = 0; s < samples; ++s) {
    stats::Rng sample_rng = stats::Rng::from_counter(base, s);
    evaluate_edges(sample_rng, sc);
    const double n1 = static_cast<double>(s + 1);
    for (size_t i = 0; i < ins.size(); ++i) {
      ++token;
      time[ins[i]] = 0.0;
      stamp[ins[i]] = token;
      for (const ConeEdge& ce : cone[i]) {
        if (stamp[ce.from] != token) continue;  // multi-pin duplicates only
        const double cand = time[ce.from] + sc.delays[ce.e];
        if (stamp[ce.to] != token || cand > time[ce.to]) {
          time[ce.to] = cand;
          stamp[ce.to] = token;
        }
      }
      for (const auto& [j, vout] : cone_outs[i]) {
        const size_t k = i * outs.size() + j;
        const double x = time[vout];
        const double delta = x - st.mean[k];
        st.mean[k] += delta / n1;
        m2[k] += delta * (x - st.mean[k]);
      }
    }
  }
  for (size_t k = 0; k < cells; ++k)
    st.sigma[k] = samples > 1
                      ? std::sqrt(m2[k] / static_cast<double>(samples - 1))
                      : 0.0;
  return st;
}

}  // namespace hssta::mc
