#include "hssta/serve/protocol.hpp"

#include <sstream>

#include "hssta/flow/chain.hpp"
#include "hssta/util/error.hpp"

namespace hssta::serve {

namespace {

Verb parse_verb(const std::string& v) {
  if (v == "load_design") return Verb::kLoadDesign;
  if (v == "open_session") return Verb::kOpenSession;
  if (v == "eco") return Verb::kEco;
  if (v == "analyze") return Verb::kAnalyze;
  if (v == "sweep") return Verb::kSweep;
  if (v == "check") return Verb::kCheck;
  if (v == "stats") return Verb::kStats;
  if (v == "save_session") return Verb::kSaveSession;
  if (v == "restore_session") return Verb::kRestoreSession;
  if (v == "close_session") return Verb::kCloseSession;
  if (v == "shutdown") return Verb::kShutdown;
  throw Error("unknown verb '" + v + "'");
}

size_t count_field(const util::JsonValue& obj, const std::string& key) {
  return static_cast<size_t>(obj.at(key).as_count(key));
}

std::vector<ChangeSpec> parse_changes(const util::JsonValue& arr,
                                      const char* what) {
  HSSTA_REQUIRE(arr.is_array(), std::string(what) + " must be an array");
  std::vector<ChangeSpec> out;
  out.reserve(arr.items().size());
  for (const util::JsonValue& c : arr.items())
    out.push_back(parse_change_spec(c));
  return out;
}

}  // namespace

ChangeSpec parse_change_spec(const util::JsonValue& c) {
  HSSTA_REQUIRE(c.is_object(), "change must be an object");
  const std::string& op = c.at("op").as_string();
  ChangeSpec spec;
  if (op == "swap") {
    spec.op = ChangeSpec::Op::kSwap;
    spec.inst = count_field(c, "inst");
    spec.file = c.at("file").as_string();
    HSSTA_REQUIRE(!spec.file.empty(), "swap change needs a non-empty file");
  } else if (op == "move") {
    spec.op = ChangeSpec::Op::kMove;
    spec.inst = count_field(c, "inst");
    spec.x = c.at("x").as_number();
    spec.y = c.at("y").as_number();
  } else if (op == "rewire") {
    spec.op = ChangeSpec::Op::kRewire;
    spec.conn = count_field(c, "conn");
    spec.from = hier::PortRef{count_field(c, "from_inst"),
                              count_field(c, "from_port")};
    spec.to =
        hier::PortRef{count_field(c, "to_inst"), count_field(c, "to_port")};
  } else if (op == "sigma") {
    spec.op = ChangeSpec::Op::kSigma;
    spec.param = count_field(c, "param");
    spec.scale = c.at("scale").as_number();
  } else {
    throw Error("unknown change op '" + op + "'");
  }
  return spec;
}

bool is_session_verb(Verb v) {
  return v == Verb::kEco || v == Verb::kAnalyze || v == Verb::kSweep ||
         v == Verb::kSaveSession || v == Verb::kCloseSession;
}

Request parse_request(const std::string& line) {
  const util::JsonValue doc = util::JsonReader::parse(line);
  HSSTA_REQUIRE(doc.is_object(), "request must be a JSON object");
  Request req;
  req.verb = parse_verb(doc.at("verb").as_string());
  if (const util::JsonValue* id = doc.find("id"))
    req.id = id->as_count("id");

  switch (req.verb) {
    case Verb::kLoadDesign: {
      req.name = doc.at("name").as_string();
      HSSTA_REQUIRE(!req.name.empty(), "load_design needs a non-empty name");
      const util::JsonValue& files = doc.at("files");
      HSSTA_REQUIRE(files.is_array() && files.items().size() >= 2,
                    "load_design needs a files array of >= 2 entries");
      for (const util::JsonValue& f : files.items())
        req.files.push_back(f.as_string());
      break;
    }
    case Verb::kOpenSession:
    case Verb::kCheck:
      req.design = doc.at("design").as_string();
      break;
    case Verb::kEco:
      req.session = doc.at("session").as_count("session");
      req.changes = parse_changes(doc.at("changes"), "changes");
      HSSTA_REQUIRE(!req.changes.empty(), "eco needs at least one change");
      break;
    case Verb::kAnalyze:
      req.session = doc.at("session").as_count("session");
      if (const util::JsonValue* ch = doc.find("changes"))
        req.changes = parse_changes(*ch, "changes");
      break;
    case Verb::kSweep: {
      req.session = doc.at("session").as_count("session");
      const util::JsonValue& arr = doc.at("scenarios");
      HSSTA_REQUIRE(arr.is_array() && !arr.items().empty(),
                    "sweep needs a non-empty scenarios array");
      for (size_t i = 0; i < arr.items().size(); ++i) {
        const util::JsonValue& sc = arr.items()[i];
        HSSTA_REQUIRE(sc.is_object(), "scenario must be an object");
        ScenarioSpec spec;
        if (const util::JsonValue* label = sc.find("label")) {
          spec.label = label->as_string();
        } else {
          const std::string index = std::to_string(i);
          spec.label = "s" + index;
        }
        spec.changes = parse_changes(sc.at("changes"), "scenario changes");
        req.scenarios.push_back(std::move(spec));
      }
      break;
    }
    case Verb::kSaveSession:
      req.session = doc.at("session").as_count("session");
      req.file = doc.at("file").as_string();
      HSSTA_REQUIRE(!req.file.empty(),
                    "save_session needs a non-empty file");
      break;
    case Verb::kRestoreSession:
      req.file = doc.at("file").as_string();
      HSSTA_REQUIRE(!req.file.empty(),
                    "restore_session needs a non-empty file");
      break;
    case Verb::kCloseSession:
      req.session = doc.at("session").as_count("session");
      break;
    case Verb::kStats:
    case Verb::kShutdown:
      break;
  }
  return req;
}

incr::Change resolve_change(const ChangeSpec& spec, const flow::Config& cfg) {
  switch (spec.op) {
    case ChangeSpec::Op::kSwap:
      return incr::ReplaceModule{spec.inst,
                                 flow::load_variant_model(spec.file, cfg)};
    case ChangeSpec::Op::kMove:
      return incr::MoveInstance{spec.inst, spec.x, spec.y};
    case ChangeSpec::Op::kRewire:
      return incr::RewireConnection{spec.conn, spec.from, spec.to};
    case ChangeSpec::Op::kSigma:
      break;
  }
  return incr::SigmaScale{spec.param, spec.scale};
}

void begin_response(util::JsonWriter& w, const std::optional<uint64_t>& id,
                    bool ok) {
  w.begin_object();
  if (id) w.key("id").value(*id);
  w.key("ok").value(ok);
}

std::string error_response(const std::optional<uint64_t>& id, const char* code,
                           const std::string& message) {
  std::ostringstream os;
  util::JsonWriter w(os);
  begin_response(w, id, /*ok=*/false);
  w.key("code").value(code);
  w.key("error").value(message);
  w.end_object();
  return os.str();
}

std::string overlong_line_response() {
  return error_response(std::nullopt, kBadRequest,
                        "request line exceeds the limit of " +
                            std::to_string(kMaxRequestLineBytes) + " bytes");
}

}  // namespace hssta::serve
