#include "hssta/flow/config.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <sstream>

#include "hssta/check/check.hpp"
#include "hssta/exec/executor.hpp"
#include "hssta/util/error.hpp"
#include "hssta/util/hash.hpp"
#include "hssta/util/strings.hpp"

namespace hssta::flow {

namespace {

std::string trimmed(const std::string& s) { return std::string(trim(s)); }

// Numeric parsing shares util's strict helpers (full consumption, no
// signs on counts, overflow rejected); wrap them to quote the key.
double parse_num(const std::string& key, const std::string& value) {
  return parse_number("'" + key + "'", value);
}

uint64_t parse_cnt(const std::string& key, const std::string& value) {
  return parse_count("'" + key + "'", value);
}

/// A thread count: a count that exec::effective_threads accepts (it throws
/// the named error above exec::kMaxThreads).
uint64_t parse_threads(const std::string& what, const std::string& value) {
  const uint64_t n = parse_count(what, value);
  (void)exec::effective_threads(n);
  return n;
}

bool parse_bool(const std::string& key, const std::string& value) {
  if (value == "true" || value == "1" || value == "on") return true;
  if (value == "false" || value == "0" || value == "off") return false;
  throw Error("malformed boolean for '" + key + "': " + value);
}

}  // namespace

size_t default_threads() {
  if (const char* env = std::getenv("HSSTA_THREADS")) {
    try {
      return static_cast<size_t>(parse_threads("HSSTA_THREADS", env));
    } catch (const Error& e) {
      // A malformed environment value must not make every default-
      // constructed Config throw; fall back to serial — but say so once,
      // so a misconfigured CI job does not silently lose parallelism.
      static std::once_flag warned;
      std::call_once(warned, [&] {
        std::fprintf(stderr,
                     "hssta: warning: %s; ignoring HSSTA_THREADS and "
                     "running serial\n",
                     e.what());
      });
      return 1;
    }
  }
  return 1;
}

std::string default_cache_dir() {
  if (const char* env = std::getenv("HSSTA_CACHE_DIR")) {
    const std::string dir(trim(env));
    if (dir.empty()) {
      // Same policy as HSSTA_THREADS: a blank value is almost certainly a
      // broken export; warn once instead of silently not caching.
      static std::once_flag warned;
      std::call_once(warned, [] {
        std::fprintf(stderr,
                     "hssta: warning: HSSTA_CACHE_DIR is set but blank; "
                     "ignoring it (model caching stays off)\n");
      });
      return "";
    }
    return dir;
  }
  return "";
}

void Config::set(const std::string& key, const std::string& value) {
  if (key == "place.row_height")
    place.row_height = parse_num(key, value);
  else if (key == "place.target_aspect")
    place.target_aspect = parse_num(key, value);
  else if (key == "place.utilization")
    place.utilization = parse_num(key, value);
  else if (key == "parameters.load_sigma")
    parameters.load_sigma_rel = parse_num(key, value);
  else if (key == "correlation.rho_neighbor")
    correlation.rho_neighbor = parse_num(key, value);
  else if (key == "correlation.rho_global")
    correlation.rho_global = parse_num(key, value);
  else if (key == "correlation.cutoff")
    correlation.cutoff = parse_num(key, value);
  else if (key == "grid.max_cells")
    max_cells_per_grid = parse_cnt(key, value);
  else if (key == "pca.min_explained")
    pca.min_explained = parse_num(key, value);
  else if (key == "pca.max_components")
    pca.max_components = parse_cnt(key, value);
  else if (key == "build.output_port_cap")
    build.output_port_cap = parse_num(key, value);
  else if (key == "build.register_pin_cap")
    build.register_pin_cap = parse_num(key, value);
  else if (key == "frontend.sequential")
    frontend.sequential = parse_bool(key, value);
  else if (key == "frontend.liberty")
    frontend.liberty = value;
  else if (key == "frontend.blif_model")
    frontend.blif_model = value;
  else if (key == "extract.delta")
    extract.criticality_threshold = parse_num(key, value);
  else if (key == "extract.repair_connectivity")
    extract.repair_connectivity = parse_bool(key, value);
  else if (key == "hier.mode") {
    if (value == "replacement")
      hier.mode = hier::CorrelationMode::kReplacement;
    else if (value == "global_only")
      hier.mode = hier::CorrelationMode::kGlobalOnly;
    else
      throw Error(
          "config: hier.mode must be 'replacement' or 'global_only', got: " +
          value);
  } else if (key == "hier.load_aware_boundary")
    hier.load_aware_boundary = parse_bool(key, value);
  else if (key == "hier.interconnect_delay")
    hier.interconnect_delay = parse_num(key, value);
  else if (key == "hier.sigma_scale") {
    // Comma-separated per-parameter scale factors, e.g. "1,0.8,1.2"
    // (order matches the configured parameter set; see
    // HierOptions::param_sigma_scale).
    std::vector<double> scales;
    for (const std::string& part : split(value, ','))
      scales.push_back(parse_num(key, trimmed(part)));
    if (scales.empty())
      throw Error("config: hier.sigma_scale needs at least one factor");
    hier.param_sigma_scale = std::move(scales);
  } else if (key == "hier.pca.min_explained")
    hier.pca.min_explained = parse_num(key, value);
  else if (key == "hier.pca.max_components")
    hier.pca.max_components = parse_cnt(key, value);
  else if (key == "mc.samples")
    mc.samples = parse_cnt(key, value);
  else if (key == "mc.seed")
    mc.seed = parse_cnt(key, value);
  else if (key == "threads" || key == "exec.threads")
    threads = parse_threads("'" + key + "'", value);
  else if (key == "cache.dir")
    cache.dir = value;
  else if (key == "cache.enabled")
    cache.enabled = parse_bool(key, value);
  else if (key.starts_with("check.")) {
    const std::string rule = key.substr(6);
    if (check::find_rule(rule) == nullptr)
      throw Error("config: unknown check rule '" + rule +
                  "' (see docs/CHECKS.md for the catalog)");
    check_severity[rule] = check::severity_from_name(value);
  } else
    throw Error("config: unknown key '" + key + "'");
}

Config Config::from_stream(std::istream& is, const std::string& origin) {
  Config cfg;
  std::string line;
  std::string section;
  size_t lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    const auto where = [&] { return origin + ":" + std::to_string(lineno); };
    if (const size_t hash = line.find('#'); hash != std::string::npos)
      line.resize(hash);
    line = trimmed(line);
    if (line.empty()) continue;
    if (line.front() == '[') {
      if (line.back() != ']' || line.size() <= 2)
        throw Error(where() + ": malformed section header: " + line);
      section = trimmed(line.substr(1, line.size() - 2));
      if (section.empty()) throw Error(where() + ": empty section header");
      continue;
    }
    const size_t eq = line.find('=');
    if (eq == std::string::npos)
      throw Error(where() + ": expected 'key = value', got: " + line);
    std::string key = trimmed(line.substr(0, eq));
    const std::string value = trimmed(line.substr(eq + 1));
    if (key.empty()) throw Error(where() + ": missing key before '='");
    if (value.empty())
      throw Error(where() + ": missing value for '" + key + "'");
    if (!section.empty()) key = section + "." + key;
    try {
      cfg.set(key, value);
    } catch (const Error& e) {
      throw Error(where() + ": " + e.what());
    }
  }
  return cfg;
}

Config Config::from_string(const std::string& text) {
  std::istringstream is(text);
  return from_stream(is, "<string>");
}

Config Config::from_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw Error("cannot open config file: " + path);
  return from_stream(is, path);
}

// Compile-time tripwire for the hand-enumerated fingerprint below: adding
// a field to any hashed struct changes its size and fails this assert, so
// the author is forced to extend the hash (and bump the version tag) —
// otherwise existing cache directories would serve models extracted under
// the old field set. Checked on the primary LP64 libstdc++ platform only;
// other ABIs change every size at once without changing the field sets.
#if defined(__GLIBCXX__) && defined(__x86_64__)
static_assert(sizeof(placement::PlaceOptions) == 24 &&
                  sizeof(variation::SpatialCorrelationConfig) == 24 &&
                  sizeof(linalg::PcaOptions) == 24 &&
                  sizeof(timing::BuildOptions) == 16 &&
                  sizeof(variation::ProcessParameter) == 64 &&
                  sizeof(variation::ParameterSet) == 32,
              "a struct hashed by extraction_fingerprint() changed: hash the "
              "new field(s), bump the version tag, then update this size");
#endif

uint64_t extraction_fingerprint(const Config& cfg) {
  util::Fnv1a h;
  // v2: build.register_pin_cap joined the hashed field set.
  h.str("hssta.flow_config.v2");
  h.f64(cfg.place.row_height);
  h.f64(cfg.place.target_aspect);
  h.f64(cfg.place.utilization);
  h.f64(cfg.parameters.load_sigma_rel);
  h.u64(cfg.parameters.size());
  for (const variation::ProcessParameter& p : cfg.parameters.params) {
    h.str(p.name);
    h.f64(p.sigma_rel);
    h.f64(p.global_frac);
    h.f64(p.local_frac);
    h.f64(p.random_frac);
  }
  h.f64(cfg.correlation.rho_neighbor);
  h.f64(cfg.correlation.rho_global);
  h.f64(cfg.correlation.cutoff);
  h.u64(cfg.max_cells_per_grid);
  h.f64(cfg.pca.min_explained);
  h.f64(cfg.pca.rel_tol);
  h.u64(cfg.pca.max_components);
  h.f64(cfg.build.output_port_cap);
  h.f64(cfg.build.register_pin_cap);
  return h.value();
}

}  // namespace hssta::flow
