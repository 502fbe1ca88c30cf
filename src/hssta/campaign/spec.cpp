#include "hssta/campaign/spec.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "hssta/util/error.hpp"

namespace hssta::campaign {

namespace fs = std::filesystem;

namespace {

/// %g formatting for labels (matches describe_change — labels are
/// human-facing, the %.17g precision lives in the JSON payloads).
std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

/// Reject unknown keys so a typo ("scale" for "scales") fails loudly
/// instead of silently shrinking the campaign. "description"/"notes" are
/// annotation slots, allowed everywhere.
void check_keys(const util::JsonValue& obj, const char* what,
                std::initializer_list<const char*> allowed) {
  for (const auto& [key, value] : obj.members()) {
    if (key == "description" || key == "notes") continue;
    bool known = false;
    for (const char* k : allowed) known = known || key == k;
    if (!known)
      throw Error(std::string("campaign spec: unknown key '") + key +
                  "' in " + what);
  }
}

std::string resolve_path(const std::string& file, const std::string& base_dir) {
  if (base_dir.empty() || fs::path(file).is_absolute()) return file;
  return (fs::path(base_dir) / file).string();
}

size_t count_field(const util::JsonValue& obj, const std::string& key) {
  return static_cast<size_t>(obj.at(key).as_count(key));
}

Axis parse_axis(const util::JsonValue& a, const std::string& base_dir) {
  HSSTA_REQUIRE(a.is_object(), "campaign spec: axis must be an object");
  const std::string& type = a.at("type").as_string();
  Axis axis;
  if (type == "sigma") {
    check_keys(a, "sigma axis", {"type", "param", "scales"});
    const size_t param = count_field(a, "param");
    const util::JsonValue& scales = a.at("scales");
    HSSTA_REQUIRE(scales.is_array(),
                  "campaign spec: sigma axis 'scales' must be an array");
    for (const util::JsonValue& s : scales.items()) {
      serve::ChangeSpec c;
      c.op = serve::ChangeSpec::Op::kSigma;
      c.param = param;
      c.scale = s.as_number();
      const std::string index = std::to_string(param);
      axis.values.push_back({"p" + index + "x" + fmt(c.scale), c});
    }
  } else if (type == "swap") {
    check_keys(a, "swap axis", {"type", "inst", "files"});
    const size_t inst = count_field(a, "inst");
    const util::JsonValue& files = a.at("files");
    HSSTA_REQUIRE(files.is_array(),
                  "campaign spec: swap axis 'files' must be an array");
    for (const util::JsonValue& f : files.items()) {
      serve::ChangeSpec c;
      c.op = serve::ChangeSpec::Op::kSwap;
      c.inst = inst;
      c.file = resolve_path(f.as_string(), base_dir);
      HSSTA_REQUIRE(!f.as_string().empty(),
                    "campaign spec: swap axis file must be non-empty");
      const std::string index = std::to_string(inst);
      axis.values.push_back({"u" + index + "=" + f.as_string(), c});
    }
  } else if (type == "move") {
    check_keys(a, "move axis", {"type", "inst", "points"});
    const size_t inst = count_field(a, "inst");
    const util::JsonValue& points = a.at("points");
    HSSTA_REQUIRE(points.is_array(),
                  "campaign spec: move axis 'points' must be an array");
    for (const util::JsonValue& p : points.items()) {
      HSSTA_REQUIRE(p.is_array() && p.items().size() == 2,
                    "campaign spec: move axis point must be [x, y]");
      serve::ChangeSpec c;
      c.op = serve::ChangeSpec::Op::kMove;
      c.inst = inst;
      c.x = p.items()[0].as_number();
      c.y = p.items()[1].as_number();
      const std::string index = std::to_string(inst);
      axis.values.push_back(
          {"u" + index + "@(" + fmt(c.x) + "," + fmt(c.y) + ")", c});
    }
  } else if (type == "rewire") {
    check_keys(a, "rewire axis", {"type", "conn", "routes"});
    const size_t conn = count_field(a, "conn");
    const util::JsonValue& routes = a.at("routes");
    HSSTA_REQUIRE(routes.is_array(),
                  "campaign spec: rewire axis 'routes' must be an array");
    for (const util::JsonValue& r : routes.items()) {
      HSSTA_REQUIRE(r.is_object(),
                    "campaign spec: rewire axis route must be an object");
      check_keys(r, "rewire route",
                 {"from_inst", "from_port", "to_inst", "to_port"});
      serve::ChangeSpec c;
      c.op = serve::ChangeSpec::Op::kRewire;
      c.conn = conn;
      c.from = hier::PortRef{count_field(r, "from_inst"),
                             count_field(r, "from_port")};
      c.to =
          hier::PortRef{count_field(r, "to_inst"), count_field(r, "to_port")};
      const std::string index = std::to_string(conn);
      axis.values.push_back(
          {"c" + index + "->u" + std::to_string(c.from.instance) + ".o" +
               std::to_string(c.from.port) + ":u" +
               std::to_string(c.to.instance) + ".i" + std::to_string(c.to.port),
           c});
    }
  } else {
    throw Error("campaign spec: unknown axis type '" + type + "'");
  }
  HSSTA_REQUIRE(!axis.values.empty(),
                "campaign spec: axis '" + type + "' has no values");
  return axis;
}

/// Structural identity of a change list (file paths as given — duplicate
/// detection runs before models load, so it keys on the spec's own
/// content; distinct paths to identical files are caught later by the
/// content fingerprint when shards collide).
std::string change_list_key(const std::vector<serve::ChangeSpec>& changes) {
  std::ostringstream os;
  for (const serve::ChangeSpec& c : changes) {
    switch (c.op) {
      case serve::ChangeSpec::Op::kSwap:
        os << "swap " << c.inst << ' ' << c.file << '\n';
        break;
      case serve::ChangeSpec::Op::kMove:
        os << "move " << c.inst << ' ' << c.x << ' ' << c.y << '\n';
        break;
      case serve::ChangeSpec::Op::kRewire:
        os << "rewire " << c.conn << ' ' << c.from.instance << ' '
           << c.from.port << ' ' << c.to.instance << ' ' << c.to.port << '\n';
        break;
      case serve::ChangeSpec::Op::kSigma:
        os << "sigma " << c.param << ' ' << c.scale << '\n';
        break;
    }
  }
  return os.str();
}

}  // namespace

CampaignSpec parse_campaign(const util::JsonValue& doc,
                            const std::string& base_dir) {
  HSSTA_REQUIRE(doc.is_object(), "campaign spec must be a JSON object");
  check_keys(doc, "campaign", {"name", "base", "axes"});

  CampaignSpec spec;
  spec.name = doc.at("name").as_string();
  HSSTA_REQUIRE(!spec.name.empty(), "campaign spec: name must be non-empty");

  const util::JsonValue& base = doc.at("base");
  HSSTA_REQUIRE(base.is_object(), "campaign spec: base must be an object");
  check_keys(base, "base", {"topology", "files"});
  spec.topology = base.at("topology").as_string();
  HSSTA_REQUIRE(spec.topology == "chain" || spec.topology == "star",
                "campaign spec: topology must be 'chain' or 'star', got '" +
                    spec.topology + "'");
  const util::JsonValue& files = base.at("files");
  HSSTA_REQUIRE(files.is_array() && files.items().size() >= 2,
                "campaign spec: base needs a files array of >= 2 entries");
  for (const util::JsonValue& f : files.items())
    spec.files.push_back(resolve_path(f.as_string(), base_dir));

  const util::JsonValue& axes = doc.at("axes");
  HSSTA_REQUIRE(axes.is_array() && !axes.items().empty(),
                "campaign spec: axes must be a non-empty array");
  for (const util::JsonValue& a : axes.items())
    spec.axes.push_back(parse_axis(a, base_dir));
  return spec;
}

CampaignSpec parse_campaign_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw Error("cannot open campaign spec: " + path);
  std::ostringstream text;
  text << is.rdbuf();
  try {
    return parse_campaign(util::JsonReader::parse(text.str()),
                          fs::path(path).parent_path().string());
  } catch (const Error& e) {
    throw Error(std::string(e.what()) + " (in " + path + ")");
  }
}

std::vector<CampaignScenario> expand(const CampaignSpec& spec) {
  // Low enough that the error below fires long before the expansion
  // itself would exhaust memory — a campaign this size is days of work.
  constexpr size_t kMaxScenarios = 1'000'000;
  size_t total = 1;
  for (const Axis& a : spec.axes) {
    HSSTA_REQUIRE(!a.values.empty() && total <= kMaxScenarios / a.values.size(),
                  "campaign spec: grid is unreasonably large (over " +
                      std::to_string(kMaxScenarios) + " scenarios)");
    total *= a.values.size();
  }

  std::vector<CampaignScenario> out;
  out.reserve(total);
  std::vector<size_t> odo(spec.axes.size(), 0);
  std::set<std::string> seen;
  for (size_t i = 0; i < total; ++i) {
    CampaignScenario sc;
    sc.index = i;
    for (size_t a = 0; a < spec.axes.size(); ++a) {
      const AxisValue& v = spec.axes[a].values[odo[a]];
      sc.label += (sc.label.empty() ? "" : "|") + v.label;
      sc.changes.push_back(v.change);
    }
    if (!seen.insert(change_list_key(sc.changes)).second)
      throw Error("campaign spec: duplicate scenario '" + sc.label +
                  "' — two grid points expand to the same change list");
    out.push_back(std::move(sc));
    // Odometer: last axis fastest.
    for (size_t a = spec.axes.size(); a-- > 0;) {
      if (++odo[a] < spec.axes[a].values.size()) break;
      odo[a] = 0;
    }
  }
  return out;
}

flow::Design build_base_design(const CampaignSpec& spec,
                               const flow::Config& cfg) {
  if (spec.topology == "star")
    return flow::build_star_design(spec.name, spec.files, cfg);
  return flow::build_chain_design(spec.name, spec.files, cfg);
}

}  // namespace hssta::campaign
