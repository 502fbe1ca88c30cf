// incr/serialize.cpp — versioned persistence for incr::DesignState.
//
// Format "hsds 1": the line/keyword text idioms of the .hstm model
// serializer, read through the same util::TokenReader (hex-float doubles
// for bit-exact round trips, strict counts, named truncation errors,
// trailing content after 'end' rejected). Models are embedded
// length-prefixed — TimingModel::load consumes a whole stream and rejects
// trailing content, so each model's bytes are framed exactly and parsed
// from a private substream — and deduplicated by pointer, so the common
// many-instances-of-one-IP design stores each model once.
//
// An embedded model's bytes are its cached .hstm text
// (TimingModel::saved_text, shared by the model's copies), so saving a
// state or fingerprinting it never runs a model's hex-float writer again.
// state_fingerprint hashes the pieces save writes, in order, without
// assembling the text.

#include <fstream>
#include <map>
#include <sstream>
#include <string_view>
#include <utility>

#include "hssta/incr/design_state.hpp"
#include "hssta/util/error.hpp"
#include "hssta/util/hash.hpp"
#include "hssta/util/token_reader.hpp"

namespace hssta::incr {

using util::hexf;

namespace {

void check_name(const std::string& name, const char* what) {
  HSSTA_REQUIRE(!name.empty(), std::string(what) + " name is empty");
  HSSTA_REQUIRE(name.find_first_of(" \t\n\r") == std::string::npos,
                std::string(what) + " names with whitespace cannot be "
                                    "serialized: '" +
                    name + "'");
}

/// An embedded model may not plausibly exceed this (the largest ISCAS
/// model serializes to well under a megabyte); a corrupt length must not
/// drive a giant allocation before the read fails.
constexpr size_t kMaxModelBytes = size_t{1} << 30;

/// The "hsds 1" text of a state as pieces, in file order: lines[k], then
/// models[k] (an embedded model's saved text), for every model, then
/// lines.back(). DesignState::save writes the pieces and state_fingerprint
/// hashes them, so the two cannot drift, and neither assembles the whole
/// text nor runs a model's writer again.
struct SavedPieces {
  std::vector<std::string> lines;
  std::vector<const std::string*> models;

  template <typename F>
  void each(F&& f) const {
    for (size_t k = 0; k < models.size(); ++k) {
      f(std::string_view(lines[k]));
      f(std::string_view(*models[k]));
    }
    f(std::string_view(lines.back()));
  }
};

SavedPieces saved_pieces(const DesignState& state) {
  const DesignInputs& inputs = state.inputs();
  const hier::HierOptions& opts = state.options();
  check_name(inputs.name, "design");

  SavedPieces out;
  std::ostringstream os;
  os << "hsds 1\n";
  os << "design " << inputs.name << '\n';
  if (inputs.fixed_die)
    os << "die fixed " << hexf(inputs.fixed_die->width) << ' '
       << hexf(inputs.fixed_die->height) << '\n';
  else
    os << "die auto\n";
  os << "mode "
     << (opts.mode == hier::CorrelationMode::kReplacement ? "replacement"
                                                          : "global_only")
     << '\n';
  os << "load_aware " << (opts.load_aware_boundary ? 1 : 0) << '\n';
  os << "interconnect " << hexf(opts.interconnect_delay) << '\n';
  os << "pca " << hexf(opts.pca.min_explained) << ' '
     << hexf(opts.pca.rel_tol) << ' ' << opts.pca.max_components << '\n';
  os << "sigma_scale " << opts.param_sigma_scale.size();
  for (double s : opts.param_sigma_scale) os << ' ' << hexf(s);
  os << '\n';

  // Shared models stored once, referenced by index.
  std::map<const model::TimingModel*, size_t> model_index;
  std::vector<const model::TimingModel*> models;
  for (const InstanceSpec& inst : inputs.instances) {
    HSSTA_REQUIRE(inst.model != nullptr,
                  "instance '" + inst.name + "' has no model to serialize");
    if (model_index.emplace(inst.model.get(), models.size()).second)
      models.push_back(inst.model.get());
  }
  os << "models " << models.size() << '\n';
  for (size_t k = 0; k < models.size(); ++k) {
    const std::string& bytes = models[k]->saved_text();
    // Length-prefixed framing: TimingModel::load consumes a whole stream
    // (and rejects trailing content), so the loader must hand it exactly
    // these bytes in a private substream.
    os << "model " << k << ' ' << bytes.size() << '\n';
    out.lines.push_back(os.str());
    out.models.push_back(&bytes);
    os.str({});
  }

  os << "instances " << inputs.instances.size() << '\n';
  for (const InstanceSpec& inst : inputs.instances) {
    check_name(inst.name, "instance");
    os << "inst " << inst.name << ' ' << model_index.at(inst.model.get())
       << ' ' << hexf(inst.origin.x) << ' ' << hexf(inst.origin.y) << '\n';
  }

  os << "connections " << inputs.connections.size() << '\n';
  for (const hier::Connection& c : inputs.connections)
    os << "conn " << c.from_output.instance << ' ' << c.from_output.port
       << ' ' << c.to_input.instance << ' ' << c.to_input.port << '\n';

  os << "pins " << inputs.primary_inputs.size() << '\n';
  for (const hier::PrimaryInput& pi : inputs.primary_inputs) {
    check_name(pi.name, "primary input");
    os << "pin " << pi.name << ' ' << pi.sinks.size();
    for (const hier::PortRef& s : pi.sinks)
      os << ' ' << s.instance << ' ' << s.port;
    os << '\n';
  }

  os << "pouts " << inputs.primary_outputs.size() << '\n';
  for (const hier::PrimaryOutput& po : inputs.primary_outputs) {
    check_name(po.name, "primary output");
    os << "pout " << po.name << ' ' << po.source.instance << ' '
       << po.source.port << '\n';
  }
  os << "end\n";
  out.lines.push_back(os.str());
  return out;
}

}  // namespace

void DesignState::save(std::ostream& os) const {
  saved_pieces(*this).each([&os](std::string_view piece) { os << piece; });
  os.flush();
  HSSTA_REQUIRE(os.good(),
                "design state serialization failed: output stream entered "
                "an error state (disk full or sink closed?)");
}

void DesignState::save_file(const std::string& path) const {
  std::ofstream os(path);
  if (!os) throw Error("cannot open design state file for writing: " + path);
  save(os);
  os.close();
  if (!os) throw Error("write to design state file failed: " + path);
}

DesignState DesignState::load(std::istream& is) {
  util::TokenReader in(is, "design state file");
  in.keyword("hsds");
  const std::string version = in.token("version");
  HSSTA_REQUIRE(version == "1",
                "unsupported design state format version " + version);

  DesignInputs inputs;
  in.keyword("design");
  inputs.name = in.token("design name");

  in.keyword("die");
  const std::string die_kind = in.token("die kind");
  if (die_kind == "fixed") {
    placement::Die die;
    die.width = in.number("die width");
    die.height = in.number("die height");
    inputs.fixed_die = die;
  } else {
    HSSTA_REQUIRE(die_kind == "auto", "bad die kind: " + die_kind);
  }

  hier::HierOptions opts;
  in.keyword("mode");
  const std::string mode_tok = in.token("mode");
  if (mode_tok == "replacement")
    opts.mode = hier::CorrelationMode::kReplacement;
  else if (mode_tok == "global_only")
    opts.mode = hier::CorrelationMode::kGlobalOnly;
  else
    throw Error("bad correlation mode in design state file: " + mode_tok);

  in.keyword("load_aware");
  const std::string la = in.token("load_aware");
  HSSTA_REQUIRE(la == "0" || la == "1", "bad load_aware flag: " + la);
  opts.load_aware_boundary = la == "1";

  in.keyword("interconnect");
  opts.interconnect_delay = in.number("interconnect");

  in.keyword("pca");
  opts.pca.min_explained = in.number("pca explained");
  opts.pca.rel_tol = in.number("pca tolerance");
  opts.pca.max_components = in.count("pca max components");

  in.keyword("sigma_scale");
  const size_t n_scales = in.count("sigma_scale count");
  for (size_t k = 0; k < n_scales; ++k)
    opts.param_sigma_scale.push_back(
        in.number("sigma_scale value"));

  in.keyword("models");
  const size_t n_models = in.count("models count");
  std::vector<std::shared_ptr<const model::TimingModel>> models;
  models.reserve(n_models);
  for (size_t k = 0; k < n_models; ++k) {
    in.keyword("model");
    const size_t idx = in.count("model index");
    HSSTA_REQUIRE(idx == k, "design state file: models out of order");
    const size_t bytes = in.count("model bytes");
    HSSTA_REQUIRE(bytes > 0 && bytes <= kMaxModelBytes,
                  "design state file: implausible model size");
    // The framing is exact: one newline after the count, then the bytes.
    HSSTA_REQUIRE(is.get() == '\n',
                  "design state file: malformed model framing");
    std::string text(bytes, '\0');
    is.read(text.data(), static_cast<std::streamsize>(bytes));
    if (static_cast<size_t>(is.gcount()) != bytes)
      throw Error("design state file truncated at embedded model " +
                  std::to_string(k));
    std::istringstream ms(text);
    models.push_back(std::make_shared<const model::TimingModel>(
        model::TimingModel::load(ms)));
  }

  in.keyword("instances");
  const size_t n_inst = in.count("instances count");
  for (size_t k = 0; k < n_inst; ++k) {
    in.keyword("inst");
    InstanceSpec spec;
    spec.name = in.token("instance name");
    const size_t m = in.count("instance model");
    HSSTA_REQUIRE(m < models.size(),
                  "design state file: instance model index out of range");
    spec.model = models[m];
    spec.origin.x = in.number("instance x");
    spec.origin.y = in.number("instance y");
    inputs.instances.push_back(std::move(spec));
  }

  in.keyword("connections");
  const size_t n_conn = in.count("connections count");
  for (size_t k = 0; k < n_conn; ++k) {
    in.keyword("conn");
    hier::Connection c;
    c.from_output.instance = in.count("connection from instance");
    c.from_output.port = in.count("connection from port");
    c.to_input.instance = in.count("connection to instance");
    c.to_input.port = in.count("connection to port");
    inputs.connections.push_back(c);
  }

  in.keyword("pins");
  const size_t n_pins = in.count("pins count");
  for (size_t k = 0; k < n_pins; ++k) {
    in.keyword("pin");
    hier::PrimaryInput pi;
    pi.name = in.token("pin name");
    const size_t n_sinks = in.count("pin sinks");
    for (size_t s = 0; s < n_sinks; ++s) {
      hier::PortRef ref;
      ref.instance = in.count("pin sink instance");
      ref.port = in.count("pin sink port");
      pi.sinks.push_back(ref);
    }
    inputs.primary_inputs.push_back(std::move(pi));
  }

  in.keyword("pouts");
  const size_t n_pouts = in.count("pouts count");
  for (size_t k = 0; k < n_pouts; ++k) {
    in.keyword("pout");
    hier::PrimaryOutput po;
    po.name = in.token("pout name");
    po.source.instance = in.count("pout instance");
    po.source.port = in.count("pout port");
    inputs.primary_outputs.push_back(std::move(po));
  }

  in.keyword("end");
  std::string extra;
  if (is >> extra)
    throw Error("design state file: trailing content after 'end': '" + extra +
                "'");

  // Structural validity (ports in range, every input driven once, ...) is
  // checked by the first analyze(), exactly like a freshly assembled state.
  return DesignState(std::move(inputs), std::move(opts));
}

DesignState DesignState::load_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw Error("cannot open design state file: " + path);
  return load(is);
}

uint64_t model_fingerprint(const model::TimingModel& m) {
  return m.saved_fingerprint();
}

uint64_t state_fingerprint(const DesignState& state) {
  // util::Fnv1a::str of the saved text: its length, then its bytes.
  const SavedPieces pieces = saved_pieces(state);
  size_t size = 0;
  pieces.each([&size](std::string_view piece) { size += piece.size(); });
  util::Fnv1a h;
  h.u64(size);
  pieces.each(
      [&h](std::string_view piece) { h.bytes(piece.data(), piece.size()); });
  return h.value();
}

}  // namespace hssta::incr
