#include "hssta/model/timing_model.hpp"

#include <fstream>
#include <sstream>
#include <unordered_set>

#include "hssta/util/error.hpp"
#include "hssta/util/hash.hpp"
#include "hssta/util/token_reader.hpp"

namespace hssta::model {

using timing::CanonicalForm;
using timing::EdgeId;
using timing::TimingGraph;
using timing::VertexId;
using util::hexf;

BoundaryData compute_boundary(const netlist::Netlist& nl) {
  BoundaryData b;
  const auto& sinks = nl.net_sinks();
  const auto fanin_cap = [&](netlist::NetId n) {
    double cap = 0.0;
    for (netlist::GateId gate : sinks[n]) cap += nl.gate(gate).type->input_cap;
    return cap;
  };
  const auto drive = [&](netlist::NetId n) {
    const netlist::GateId d = nl.driver(n);
    return d == netlist::kNoGate ? 0.0 : nl.gate(d).type->drive_res;
  };

  if (!nl.is_sequential()) {
    for (netlist::NetId n : nl.primary_inputs())
      b.input_cap.push_back(fanin_cap(n));
    for (netlist::NetId n : nl.primary_outputs())
      b.output_drive_res.push_back(drive(n));
    return b;
  }

  // Sequential: mirror the timing-graph port order exactly (see
  // timing::build_timing_graph) — sources are PIs then register launches,
  // sinks follow vertex-creation order.
  std::vector<uint8_t> captured(nl.num_nets(), 0);
  for (const netlist::Register& r : nl.registers()) captured[r.data_in] = 1;
  const auto is_sink = [&](netlist::NetId n) {
    return nl.is_primary_output(n) || captured[n] != 0;
  };
  for (netlist::NetId n : nl.primary_inputs())
    b.input_cap.push_back(fanin_cap(n));
  for (const netlist::Register& r : nl.registers())
    b.input_cap.push_back(fanin_cap(r.data_out));
  // Ports that are also sources (feed-throughs, register launches) drive
  // with zero resistance, like combinational feed-throughs.
  for (netlist::NetId n : nl.primary_inputs())
    if (is_sink(n)) b.output_drive_res.push_back(0.0);
  for (const netlist::Register& r : nl.registers())
    if (is_sink(r.data_out)) b.output_drive_res.push_back(0.0);
  for (netlist::GateId g = 0; g < nl.num_gates(); ++g) {
    const netlist::NetId n = nl.gate(g).output;
    if (is_sink(n)) b.output_drive_res.push_back(drive(n));
  }
  return b;
}

TimingModel::TimingModel(std::string name, TimingGraph graph,
                         variation::ModuleVariation variation,
                         BoundaryData boundary)
    : name_(std::move(name)),
      graph_(std::move(graph)),
      variation_(std::move(variation)),
      boundary_(std::move(boundary)) {
  HSSTA_REQUIRE(boundary_.input_cap.size() == graph_.inputs().size(),
                "boundary input caps must match input ports");
  HSSTA_REQUIRE(boundary_.output_drive_res.size() == graph_.outputs().size(),
                "boundary drives must match output ports");
}

std::vector<std::string> TimingModel::input_names() const {
  std::vector<std::string> names;
  for (VertexId v : graph_.inputs()) names.push_back(graph_.vertex(v).name);
  return names;
}

std::vector<std::string> TimingModel::output_names() const {
  std::vector<std::string> names;
  for (VertexId v : graph_.outputs()) names.push_back(graph_.vertex(v).name);
  return names;
}

core::DelayMatrix TimingModel::io_delays() const {
  return core::all_pairs_io_delays(graph_);
}

void TimingModel::set_sequential(
    std::vector<ModelRegister> registers,
    std::vector<SequentialConstraint> constraints) {
  const auto has_name = [this](const std::vector<VertexId>& ports,
                               const std::string& name) {
    for (VertexId v : ports)
      if (graph_.vertex(v).name == name) return true;
    return false;
  };
  for (const ModelRegister& r : registers) {
    HSSTA_REQUIRE(has_name(graph_.inputs(), r.launch),
                  "register " + r.name + ": launch '" + r.launch +
                      "' is not an input port");
    HSSTA_REQUIRE(has_name(graph_.outputs(), r.capture),
                  "register " + r.name + ": capture '" + r.capture +
                      "' is not an output port");
    HSSTA_REQUIRE(r.init >= 0 && r.init <= 3,
                  "register " + r.name + ": init must be 0..3");
  }
  const size_t dim = variation_.space->dim();
  for (const SequentialConstraint& c : constraints)
    HSSTA_REQUIRE(c.delay.dim() == dim,
                  "constraint " + c.label +
                      ": delay dimension does not match the model");
  registers_ = std::move(registers);
  constraints_ = std::move(constraints);
  saved_ = std::make_shared<Saved>();
}

void TimingModel::save(std::ostream& os) const {
  const variation::GridPartition& part = variation_.partition;
  const variation::VariationSpace& space = *variation_.space;
  const variation::SpatialCorrelationConfig& corr =
      space.correlation_model().config();
  const variation::ParameterSet& params = space.parameters();

  // Sequential data bumps the format version; purely combinational models
  // keep writing version 1 byte-identically.
  const bool sequential = !registers_.empty() || !constraints_.empty();
  os << (sequential ? "hstm 2\n" : "hstm 1\n");
  os << "name " << name_ << '\n';
  os << "die " << hexf(part.die().width) << ' ' << hexf(part.die().height)
     << '\n';
  os << "grid " << part.nx() << ' ' << part.ny() << '\n';
  os << "corr " << hexf(corr.rho_neighbor) << ' ' << hexf(corr.rho_global)
     << ' ' << hexf(corr.cutoff) << '\n';
  os << "load_sigma " << hexf(params.load_sigma_rel) << '\n';
  os << "params " << params.size() << '\n';
  for (const auto& p : params.params)
    os << "param " << p.name << ' ' << hexf(p.sigma_rel) << ' '
       << hexf(p.global_frac) << ' ' << hexf(p.local_frac) << ' '
       << hexf(p.random_frac) << '\n';
  // The loader re-derives the PCA from the stored geometry; record the
  // retained component count as a consistency check (hex-float geometry
  // makes the recomputation bit-deterministic).
  os << "pca " << space.num_components() << '\n';

  os << "ports " << graph_.inputs().size() << ' ' << graph_.outputs().size()
     << '\n';
  for (size_t i = 0; i < graph_.inputs().size(); ++i)
    os << "in " << graph_.vertex(graph_.inputs()[i]).name << ' '
       << hexf(boundary_.input_cap[i]) << '\n';
  for (size_t j = 0; j < graph_.outputs().size(); ++j)
    os << "out " << graph_.vertex(graph_.outputs()[j]).name << ' '
       << hexf(boundary_.output_drive_res[j]) << '\n';

  // Live vertices, re-indexed densely.
  std::vector<VertexId> dense_to_slot;
  std::vector<size_t> slot_to_dense(graph_.num_vertex_slots(), 0);
  for (VertexId v = 0; v < graph_.num_vertex_slots(); ++v) {
    if (!graph_.vertex_alive(v)) continue;
    slot_to_dense[v] = dense_to_slot.size();
    dense_to_slot.push_back(v);
  }
  os << "vertices " << dense_to_slot.size() << '\n';
  for (VertexId v : dense_to_slot) {
    const timing::TimingVertex& tv = graph_.vertex(v);
    HSSTA_REQUIRE(tv.name.find_first_of(" \t\n") == std::string::npos,
                  "vertex names with whitespace cannot be serialized");
    const char* kind = tv.is_input ? (tv.is_output ? "io" : "i")
                                   : (tv.is_output ? "o" : "x");
    os << "v " << tv.name << ' ' << kind << '\n';
  }

  os << "edges " << graph_.num_live_edges() << '\n';
  for (EdgeId e = 0; e < graph_.num_edge_slots(); ++e) {
    if (!graph_.edge_alive(e)) continue;
    const timing::TimingEdge& te = graph_.edge(e);
    os << "e " << slot_to_dense[te.from] << ' ' << slot_to_dense[te.to] << ' '
       << hexf(te.delay.nominal()) << ' ' << hexf(te.delay.random());
    for (double c : te.delay.corr()) os << ' ' << hexf(c);
    os << '\n';
  }

  if (sequential) {
    const auto no_ws = [](const std::string& s) {
      return !s.empty() && s.find_first_of(" \t\n") == std::string::npos;
    };
    os << "registers " << registers_.size() << '\n';
    for (const ModelRegister& r : registers_) {
      HSSTA_REQUIRE(no_ws(r.name) && no_ws(r.launch) && no_ws(r.capture),
                    "register names with whitespace cannot be serialized");
      os << "r " << r.name << ' ' << r.launch << ' ' << r.capture << ' '
         << (r.clock.empty() ? "-" : r.clock) << ' ' << r.init << '\n';
    }
    os << "constraints " << constraints_.size() << '\n';
    for (const SequentialConstraint& c : constraints_) {
      HSSTA_REQUIRE(no_ws(c.label),
                    "constraint labels with whitespace cannot be serialized");
      os << "c " << c.label << ' ' << hexf(c.delay.nominal()) << ' '
         << hexf(c.delay.random());
      for (double k : c.delay.corr()) os << ' ' << hexf(k);
      os << '\n';
    }
  }
  os << "end\n";

  // A full disk or closed sink fails silently on operator<<; flush and
  // check once here so a truncated model can never pass for a saved one.
  os.flush();
  HSSTA_REQUIRE(os.good(),
                "model serialization failed: output stream entered an error "
                "state (disk full or sink closed?)");
}

const TimingModel::Saved& TimingModel::saved() const {
  HSSTA_REQUIRE(saved_ != nullptr, "a moved-from model has no saved text");
  Saved& s = *saved_;
  std::call_once(s.once, [&] {
    std::ostringstream os;
    save(os);
    s.text = std::move(os).str();
    s.fingerprint = util::Fnv1a().str(s.text).value();
  });
  return s;
}

const std::string& TimingModel::saved_text() const { return saved().text; }

uint64_t TimingModel::saved_fingerprint() const {
  return saved().fingerprint;
}

void TimingModel::save_file(const std::string& path) const {
  std::ofstream os(path);
  if (!os) throw Error("cannot open model file for writing: " + path);
  save(os);
  os.close();
  if (!os) throw Error("write to model file failed: " + path);
}

TimingModel TimingModel::load(std::istream& is) {
  util::TokenReader in(is, "model file");
  in.keyword("hstm");
  const std::string version = in.token("version");
  HSSTA_REQUIRE(version == "1" || version == "2",
                "unsupported model format version " + version);

  in.keyword("name");
  const std::string name = in.token("name");

  in.keyword("die");
  const double w = in.number("die width");
  const double h = in.number("die height");
  in.keyword("grid");
  const size_t nx = in.count("grid nx");
  const size_t ny = in.count("grid ny");
  HSSTA_REQUIRE(nx > 0 && ny > 0, "bad grid line in model file");

  in.keyword("corr");
  variation::SpatialCorrelationConfig corr;
  corr.rho_neighbor = in.number("rho_neighbor");
  corr.rho_global = in.number("rho_global");
  corr.cutoff = in.number("cutoff");

  in.keyword("load_sigma");
  variation::ParameterSet params;
  params.load_sigma_rel = in.number("load_sigma");
  in.keyword("params");
  const size_t n_params = in.count("params count");
  HSSTA_REQUIRE(n_params > 0, "bad params count");
  for (size_t k = 0; k < n_params; ++k) {
    in.keyword("param");
    variation::ProcessParameter p;
    p.name = in.token("param name");
    p.sigma_rel = in.number("sigma");
    p.global_frac = in.number("global frac");
    p.local_frac = in.number("local frac");
    p.random_frac = in.number("random frac");
    params.params.push_back(std::move(p));
  }

  in.keyword("pca");
  const size_t retained = in.count("pca components");
  HSSTA_REQUIRE(retained > 0, "bad pca line");

  variation::GridPartition partition(placement::Die{w, h}, nx, ny);
  linalg::PcaOptions pca_opts;
  pca_opts.max_components = retained;
  auto space = std::make_shared<const variation::VariationSpace>(
      params, partition.geometry(), corr, pca_opts);
  HSSTA_REQUIRE(space->num_components() == retained,
                "model file PCA dimension could not be reproduced");
  variation::ModuleVariation mv{partition, space};

  in.keyword("ports");
  const size_t ni = in.count("ports inputs");
  const size_t no = in.count("ports outputs");
  BoundaryData boundary;
  std::vector<std::pair<std::string, bool>> input_ports;  // name, also-output
  std::vector<std::string> output_ports;
  for (size_t i = 0; i < ni; ++i) {
    in.keyword("in");
    input_ports.emplace_back(in.token("input name"), false);
    boundary.input_cap.push_back(in.number("input cap"));
  }
  for (size_t j = 0; j < no; ++j) {
    in.keyword("out");
    output_ports.push_back(in.token("output name"));
    boundary.output_drive_res.push_back(
        in.number("output drive"));
  }

  in.keyword("vertices");
  const size_t nv = in.count("vertices count");
  TimingGraph graph(space);
  std::vector<VertexId> dense_to_slot;
  // det-ok: membership test only (duplicate-name guard), never iterated.
  std::unordered_set<std::string> vertex_names;
  size_t seen_inputs = 0, seen_outputs = 0;
  for (size_t k = 0; k < nv; ++k) {
    in.keyword("v");
    const std::string vname = in.token("vertex name");
    HSSTA_REQUIRE(vertex_names.insert(vname).second,
                  "model file: duplicate vertex name '" + vname + "'");
    const std::string kind = in.token("vertex kind");
    const bool is_in = kind == "i" || kind == "io";
    const bool is_out = kind == "o" || kind == "io";
    HSSTA_REQUIRE(kind == "i" || kind == "o" || kind == "x" || kind == "io",
                  "bad vertex kind: " + kind);
    if (is_in) {
      HSSTA_REQUIRE(seen_inputs < input_ports.size() &&
                        input_ports[seen_inputs].first == vname,
                    "vertex/port order mismatch for input " + vname);
      ++seen_inputs;
    }
    if (is_out) {
      HSSTA_REQUIRE(seen_outputs < output_ports.size() &&
                        output_ports[seen_outputs] == vname,
                    "vertex/port order mismatch for output " + vname);
      ++seen_outputs;
    }
    dense_to_slot.push_back(graph.add_vertex(vname, is_in, is_out));
  }
  HSSTA_REQUIRE(seen_inputs == ni && seen_outputs == no,
                "model file port/vertex mismatch");

  in.keyword("edges");
  const size_t ne = in.count("edges count");
  const size_t dim = space->dim();
  for (size_t k = 0; k < ne; ++k) {
    in.keyword("e");
    const size_t from = in.count("edge from");
    const size_t to = in.count("edge to");
    HSSTA_REQUIRE(from < nv && to < nv, "bad edge endpoints");
    CanonicalForm d(dim);
    d.set_nominal(in.number("edge nominal"));
    d.set_random(in.number("edge random"));
    for (size_t c = 0; c < dim; ++c)
      d.corr()[c] = in.number("edge coefficient");
    graph.add_edge(dense_to_slot[from], dense_to_slot[to], std::move(d));
  }

  // Version 2 appends optional registers/constraints blocks before 'end'.
  std::vector<ModelRegister> registers;
  std::vector<SequentialConstraint> constraints;
  std::string tok = in.token("end");
  if (version == "2" && tok == "registers") {
    const size_t nr = in.count("registers count");
    for (size_t k = 0; k < nr; ++k) {
      in.keyword("r");
      ModelRegister r;
      r.name = in.token("register name");
      r.launch = in.token("register launch");
      r.capture = in.token("register capture");
      r.clock = in.token("register clock");
      if (r.clock == "-") r.clock.clear();
      r.init = static_cast<int>(in.count("register init"));
      HSSTA_REQUIRE(r.init <= 3, "bad register init value");
      registers.push_back(std::move(r));
    }
    tok = in.token("end");
  }
  if (version == "2" && tok == "constraints") {
    const size_t nc = in.count("constraints count");
    for (size_t k = 0; k < nc; ++k) {
      in.keyword("c");
      SequentialConstraint c{in.token("constraint label"),
                             CanonicalForm(dim)};
      c.delay.set_nominal(in.number("constraint nominal"));
      c.delay.set_random(in.number("constraint random"));
      for (size_t d = 0; d < dim; ++d)
        c.delay.corr()[d] =
            in.number("constraint coefficient");
      constraints.push_back(std::move(c));
    }
    tok = in.token("end");
  }
  HSSTA_REQUIRE(tok == "end",
                "model file: expected 'end', got '" + tok + "'");
  // A concatenated or corrupted file must not load "successfully" with its
  // tail silently ignored; 'end' is the final token.
  std::string extra;
  if (is >> extra)
    throw Error("model file: trailing content after 'end': '" + extra + "'");

  graph.validate();
  TimingModel model(name, std::move(graph), std::move(mv),
                    std::move(boundary));
  if (!registers.empty() || !constraints.empty())
    model.set_sequential(std::move(registers), std::move(constraints));
  return model;
}

TimingModel TimingModel::load_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw Error("cannot open model file: " + path);
  return load(is);
}

}  // namespace hssta::model
