// End-to-end tests for the serve layer: wire-protocol parsing
// (serve::protocol), the request engine (sessions, per-session lanes that
// answer each request when it finishes, admission control, eviction
// beside running sessions, graceful shutdown, the model table that swaps
// resolve through), the Unix-domain-socket
// transport + client (including per-connection response order under
// pipelining) and the stdio stream transport. The load-bearing assertions
// are bit-identity ones:
// every served delay must equal — as a double, bit for bit, through the
// %.17g JSON round trip — the number a one-shot flow::Design analysis of
// the same (changed) design produces, at any client count.

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "hssta/flow/chain.hpp"
#include "hssta/flow/design.hpp"
#include "hssta/flow/module.hpp"
#include "hssta/netlist/bench_io.hpp"
#include "hssta/netlist/iscas.hpp"
#include "hssta/serve/client.hpp"
#include "hssta/serve/engine.hpp"
#include "hssta/serve/protocol.hpp"
#include "hssta/serve/socket.hpp"
#include "hssta/serve/stream.hpp"
#include "hssta/util/error.hpp"
#include "hssta/util/hash.hpp"
#include "hssta/util/json.hpp"
#include "hssta/util/version.hpp"
#include "synthetic_designs.hpp"

namespace hssta {
namespace {

namespace fs = std::filesystem;
using util::JsonReader;
using util::JsonValue;

// --- protocol parsing -------------------------------------------------------

TEST(ServeProtocol, ParsesEveryVerbAndChangeKind) {
  const serve::Request load = serve::parse_request(
      R"({"verb":"load_design","id":7,"name":"d","files":["a.bench","b.hstm"]})");
  EXPECT_EQ(load.verb, serve::Verb::kLoadDesign);
  ASSERT_TRUE(load.id.has_value());
  EXPECT_EQ(*load.id, 7u);
  EXPECT_EQ(load.name, "d");
  ASSERT_EQ(load.files.size(), 2u);
  EXPECT_EQ(load.files[1], "b.hstm");

  const serve::Request open =
      serve::parse_request(R"({"verb":"open_session","design":"d"})");
  EXPECT_EQ(open.verb, serve::Verb::kOpenSession);
  EXPECT_EQ(open.design, "d");
  EXPECT_FALSE(open.id.has_value());

  const serve::Request eco = serve::parse_request(
      R"({"verb":"eco","session":3,"changes":[)"
      R"({"op":"swap","inst":0,"file":"v.hstm"},)"
      R"({"op":"move","inst":1,"x":2.5,"y":-1.0},)"
      R"({"op":"rewire","conn":2,"from_inst":0,"from_port":1,)"
      R"("to_inst":1,"to_port":0},)"
      R"({"op":"sigma","param":1,"scale":1.25}]})");
  EXPECT_EQ(eco.verb, serve::Verb::kEco);
  EXPECT_EQ(eco.session, 3u);
  ASSERT_EQ(eco.changes.size(), 4u);
  EXPECT_EQ(eco.changes[0].op, serve::ChangeSpec::Op::kSwap);
  EXPECT_EQ(eco.changes[0].file, "v.hstm");
  EXPECT_EQ(eco.changes[1].op, serve::ChangeSpec::Op::kMove);
  EXPECT_EQ(eco.changes[1].x, 2.5);
  EXPECT_EQ(eco.changes[1].y, -1.0);
  EXPECT_EQ(eco.changes[2].op, serve::ChangeSpec::Op::kRewire);
  EXPECT_EQ(eco.changes[2].from.instance, 0u);
  EXPECT_EQ(eco.changes[2].to.port, 0u);
  EXPECT_EQ(eco.changes[3].op, serve::ChangeSpec::Op::kSigma);
  EXPECT_EQ(eco.changes[3].scale, 1.25);

  const serve::Request sweep = serve::parse_request(
      R"({"verb":"sweep","session":1,"scenarios":[)"
      R"({"label":"a","changes":[{"op":"sigma","param":0,"scale":2}]},)"
      R"({"changes":[{"op":"move","inst":0,"x":1,"y":0}]}]})");
  EXPECT_EQ(sweep.verb, serve::Verb::kSweep);
  ASSERT_EQ(sweep.scenarios.size(), 2u);
  EXPECT_EQ(sweep.scenarios[0].label, "a");
  EXPECT_EQ(sweep.scenarios[1].label, "s1");  // default label = index

  EXPECT_EQ(serve::parse_request(R"({"verb":"stats"})").verb,
            serve::Verb::kStats);
  EXPECT_EQ(serve::parse_request(R"({"verb":"shutdown"})").verb,
            serve::Verb::kShutdown);
  EXPECT_EQ(
      serve::parse_request(R"({"verb":"close_session","session":9})").session,
      9u);
}

TEST(ServeProtocol, RejectsMalformedRequests) {
  EXPECT_THROW(serve::parse_request("not json"), Error);
  EXPECT_THROW(serve::parse_request("[1,2]"), Error);
  EXPECT_THROW(serve::parse_request(R"({"verb":"warp"})"), Error);
  EXPECT_THROW(serve::parse_request(R"({"verb":"load_design","name":"d",)"
                                    R"("files":["one.bench"]})"),
               Error);  // < 2 files
  EXPECT_THROW(serve::parse_request(R"({"verb":"eco","session":1,)"
                                    R"("changes":[]})"),
               Error);  // empty change list
  EXPECT_THROW(serve::parse_request(R"({"verb":"eco","session":1,"changes":)"
                                    R"([{"op":"teleport","inst":0}]})"),
               Error);  // unknown op
  EXPECT_THROW(serve::parse_request(R"({"verb":"sweep","session":1,)"
                                    R"("scenarios":[]})"),
               Error);  // empty sweep
  EXPECT_THROW(serve::parse_request(R"({"verb":"analyze","session":-4})"),
               Error);  // negative id
}

TEST(ServeProtocol, ErrorResponseCarriesIdCodeAndMessage) {
  const std::string line =
      serve::error_response(uint64_t{12}, serve::kBackpressure, "full");
  const JsonValue doc = JsonReader::parse(line);
  EXPECT_EQ(doc.at("id").as_count("id"), 12u);
  EXPECT_FALSE(doc.at("ok").as_bool());
  EXPECT_EQ(doc.at("code").as_string(), "backpressure");
  EXPECT_EQ(doc.at("error").as_string(), "full");
}

// --- engine fixture ---------------------------------------------------------

constexpr const char* kModuleA =
    "INPUT(a)\nINPUT(b)\nOUTPUT(x)\nOUTPUT(y)\n"
    "g = NAND(a, b)\nx = AND(g, a)\ny = OR(g, b)\n";
// B and C keep kModuleA's footprint — same ports and the same gate-type
// multiset {NAND, AND, OR}, so the die (which follows summed cell widths)
// and hence the grid pitch match. Chained instances must share one pitch,
// and an ECO swap variant must be geometry-compatible with what it
// replaces; only the topology (and so the timing) differs.
constexpr const char* kModuleB =
    "INPUT(p)\nINPUT(q)\nOUTPUT(s)\nOUTPUT(t)\n"
    "h = NAND(q, p)\ns = OR(h, p)\nt = AND(h, q)\n";
constexpr const char* kModuleC =
    "INPUT(a)\nINPUT(b)\nOUTPUT(x)\nOUTPUT(y)\n"
    "g = OR(a, b)\nx = NAND(g, b)\ny = AND(g, a)\n";

/// Fresh module files per test; engines/designs load them by path exactly
/// like a daemon driven by a client would.
class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::temp_directory_path() /
           ("hssta_serve_" + std::string(info->test_suite_name()) + "_" +
            info->name() + "_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    write(dir_ / "a.bench", kModuleA);
    write(dir_ / "b.bench", kModuleB);
    write(dir_ / "c.bench", kModuleC);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  static void write(const fs::path& p, const char* text) {
    std::ofstream(p) << text;
  }

  [[nodiscard]] std::string file(const char* name) const {
    return (dir_ / name).string();
  }

  [[nodiscard]] std::string load_line(const char* design = "d") const {
    return std::string(R"({"verb":"load_design","name":")") + design +
           R"(","files":[")" + file("a.bench") + R"(",")" + file("b.bench") +
           R"("]})";
  }

  /// A load_design (request `id`, design "big") of two instances of the
  /// synthetic c7552: its extraction holds the control lane for a good
  /// fraction of a second, long after a small session request is done.
  [[nodiscard]] std::string slow_load_line(uint64_t id) const {
    const netlist::Netlist nl =
        netlist::make_iscas85("c7552", *flow::default_library());
    const std::string path = file("c7552.bench");
    std::ofstream(path) << netlist::write_bench_string(nl);
    return R"({"id":)" + std::to_string(id) +
           R"(,"verb":"load_design","name":"big","files":[")" + path +
           R"(",")" + path + R"("]})";
  }

  /// Issue a request and parse the response, asserting ok.
  static JsonValue ok(serve::Engine& engine, const std::string& line) {
    const std::string response = engine.request(line);
    JsonValue doc = JsonReader::parse(response);
    EXPECT_TRUE(doc.at("ok").as_bool()) << response;
    return doc;
  }

  /// Issue a request expecting an error; returns the response document.
  static JsonValue fail(serve::Engine& engine, const std::string& line,
                        const char* code) {
    const std::string response = engine.request(line);
    JsonValue doc = JsonReader::parse(response);
    EXPECT_FALSE(doc.at("ok").as_bool()) << response;
    EXPECT_EQ(doc.at("code").as_string(), code) << response;
    return doc;
  }

  /// The one-shot truth: a from-scratch analysis of the (changed) chain,
  /// built by the same flow::build_chain_design code path the server uses.
  [[nodiscard]] timing::CanonicalForm reference_delay(
      const flow::ChainOverrides& overrides = {},
      const flow::Config& cfg = {}) const {
    const flow::Design d = flow::build_chain_design(
        "ref", {file("a.bench"), file("b.bench")}, cfg, overrides);
    return d.analyze().delay();
  }

  /// A `verb` request on `session` that swaps instance `inst` to the
  /// variant file `path`: "analyze" applies and analyzes it, "eco" records
  /// it, "sweep" runs it as the one scenario.
  [[nodiscard]] static std::string swap_line(
      uint64_t session, size_t inst, const std::string& path,
      const std::string& verb = "analyze") {
    const std::string index = std::to_string(inst);
    const std::string changes = R"("changes":[{"op":"swap","inst":)" +
                                index + R"(,"file":")" + path + R"("}])";
    const std::string id = std::to_string(session);
    return R"({"verb":")" + verb + R"(","session":)" + id + "," +
           (verb == "sweep" ? R"("scenarios":[{)" + changes + "}]"
                            : changes) +
           "}";
  }

  /// Save c.bench's extracted model as `name` and return its path: a
  /// variant that fits either chain instance.
  [[nodiscard]] std::string variant_hstm(const char* name) const {
    const std::string path = file(name);
    flow::load_variant_model(file("c.bench"), {})->save_file(path);
    return path;
  }

  /// The `stats` verb's counter `name`.
  static uint64_t counter(serve::Engine& engine, const std::string& name) {
    const JsonValue stats = ok(engine, R"({"verb":"stats"})");
    return stats.at("counters").at(name).as_count(name);
  }

  static void expect_delay_eq(const JsonValue& delay,
                              const timing::CanonicalForm& expected) {
    EXPECT_EQ(delay.at("mean").as_number(), expected.nominal());
    EXPECT_EQ(delay.at("sigma").as_number(), expected.sigma());
    EXPECT_EQ(delay.at("q99").as_number(), expected.quantile(0.99));
  }

  fs::path dir_;
};

// --- engine round trips -----------------------------------------------------

TEST_F(ServeTest, LoadOpenAnalyzeMatchesOneShotBitForBit) {
  serve::Engine engine;
  const JsonValue loaded = ok(engine, load_line());
  EXPECT_EQ(loaded.at("design").as_string(), "d");
  EXPECT_EQ(loaded.at("instances").as_count("instances"), 2u);

  const JsonValue opened =
      ok(engine, R"({"verb":"open_session","design":"d"})");
  const uint64_t sid = opened.at("session").as_count("session");
  EXPECT_EQ(sid, 1u);

  const JsonValue analyzed = ok(
      engine, R"({"verb":"analyze","session":)" + std::to_string(sid) + "}");
  const timing::CanonicalForm expected = reference_delay();
  expect_delay_eq(loaded.at("delay"), expected);
  expect_delay_eq(opened.at("delay"), expected);
  expect_delay_eq(analyzed.at("delay"), expected);
}

TEST_F(ServeTest, EcoSwapAnalyzeMatchesFromScratchChangedDesign) {
  serve::Engine engine;
  ok(engine, load_line());
  ok(engine, R"({"verb":"open_session","design":"d"})");
  ok(engine, R"({"verb":"eco","session":1,"changes":[)"
             R"({"op":"swap","inst":0,"file":")" +
                 file("c.bench") + R"("}]})");
  const JsonValue analyzed =
      ok(engine, R"({"verb":"analyze","session":1})");

  flow::ChainOverrides overrides;
  overrides.models[0] = flow::load_variant_model(file("c.bench"), {});
  expect_delay_eq(analyzed.at("delay"), reference_delay(overrides));
}

TEST_F(ServeTest, AnalyzeWithInlineSigmaChangeMatchesReference) {
  serve::Engine engine;
  ok(engine, load_line());
  ok(engine, R"({"verb":"open_session","design":"d"})");
  const JsonValue analyzed = ok(
      engine, R"({"verb":"analyze","session":1,"changes":[)"
              R"({"op":"sigma","param":0,"scale":1.5}]})");

  flow::Config cfg;
  flow::Design ref = flow::build_chain_design(
      "ref", {file("a.bench"), file("b.bench")}, cfg);
  incr::DesignState& st = ref.incremental();
  st.set_parameter_sigma(0, 1.5);
  expect_delay_eq(analyzed.at("delay"), st.analyze());
}

TEST_F(ServeTest, SweepReportsPerScenarioDelaysAndErrorProvenance) {
  serve::Engine engine;
  ok(engine, load_line());
  ok(engine, R"({"verb":"open_session","design":"d"})");
  const JsonValue swept = ok(
      engine,
      R"({"verb":"sweep","session":1,"scenarios":[)"
      R"({"label":"faster","changes":[{"op":"sigma","param":0,"scale":0.5}]},)"
      R"({"label":"broken","changes":[{"op":"rewire","conn":99,)"
      R"("from_inst":0,"from_port":0,"to_inst":1,"to_port":0}]},)"
      R"({"label":"slower","changes":[{"op":"sigma","param":0,"scale":2.0}]}]})");

  const std::vector<JsonValue>& scenarios = swept.at("scenarios").items();
  ASSERT_EQ(scenarios.size(), 3u);
  EXPECT_TRUE(scenarios[0].at("ok").as_bool());
  EXPECT_TRUE(scenarios[2].at("ok").as_bool());

  // The failed scenario names its batch index and its change list — the
  // originating change, not just the exception text.
  const JsonValue& broken = scenarios[1];
  EXPECT_FALSE(broken.at("ok").as_bool());
  EXPECT_EQ(broken.at("label").as_string(), "broken");
  EXPECT_EQ(broken.at("index").as_count("index"), 1u);
  EXPECT_EQ(broken.at("changes").as_string(), "rewire c99 to u0.o0:u1.i0");
  EXPECT_FALSE(broken.at("error").as_string().empty());

  // Scenarios branch off the base — their delays match serial references.
  flow::Config cfg;
  flow::Design ref = flow::build_chain_design(
      "ref", {file("a.bench"), file("b.bench")}, cfg);
  incr::DesignState& st = ref.incremental();
  st.set_parameter_sigma(0, 0.5);
  expect_delay_eq(scenarios[0].at("delay"), st.analyze());
  st.set_parameter_sigma(0, 2.0);
  expect_delay_eq(scenarios[2].at("delay"), st.analyze());
}

TEST_F(ServeTest, StatsReportsVersionCountersAndKnobs) {
  serve::EngineOptions opts;
  opts.queue_capacity = 17;
  serve::Engine engine(opts);
  ok(engine, load_line());
  const JsonValue stats = ok(engine, R"({"verb":"stats","id":5})");
  EXPECT_EQ(stats.at("id").as_count("id"), 5u);
  EXPECT_EQ(stats.at("version").as_string(), kVersion);
  EXPECT_NE(stats.at("build").as_string().find(kVersion), std::string::npos);
  EXPECT_EQ(stats.at("designs").as_count("designs"), 1u);
  EXPECT_EQ(stats.at("sessions").as_count("sessions"), 0u);
  const JsonValue& counters = stats.at("counters");
  EXPECT_EQ(counters.at("requests").as_count("requests"), 2u);
  EXPECT_EQ(counters.at("responses_ok").as_count("ok"), 1u);  // load only
  const JsonValue& options = stats.at("options");
  EXPECT_EQ(options.at("queue_capacity").as_count("cap"), 17u);
}

TEST_F(ServeTest, CountersAccountForEveryResponse) {
  serve::EngineOptions opts;
  opts.max_sessions = 1;
  serve::Engine engine(opts);
  fail(engine, "not json", serve::kBadRequest);  // never dispatched
  ok(engine, load_line());
  fail(engine, load_line(), serve::kBadRequest);  // already loaded
  fail(engine, R"({"verb":"open_session","design":"ghost"})",
       serve::kUnknownDesign);
  ok(engine, R"({"verb":"open_session","design":"d"})");
  fail(engine, R"({"verb":"open_session","design":"d"})", serve::kSaturated);
  ok(engine, R"({"verb":"eco","session":1,"changes":[)"
             R"({"op":"sigma","param":0,"scale":1.1}]})");
  ok(engine, R"({"verb":"analyze","session":1})");
  fail(engine,
       R"({"verb":"analyze","session":1,"changes":[)"
       R"({"op":"rewire","conn":99,"from_inst":0,"from_port":0,)"
       R"("to_inst":1,"to_port":0}]})",
       serve::kInvalidChange);
  ok(engine, R"({"verb":"sweep","session":1,"scenarios":[)"
             R"({"changes":[{"op":"sigma","param":0,"scale":0.9}]}]})");
  ok(engine, R"({"verb":"close_session","session":1})");
  fail(engine, R"({"verb":"close_session","session":1})",
       serve::kUnknownSession);
  const JsonValue stats = ok(engine, R"({"verb":"stats"})");

  const JsonValue& counters = stats.at("counters");
  const std::vector<std::string> names = {
      "requests",
      "responses_ok",
      "responses_error",
      "rejected_backpressure",
      "rejected_shutdown",
      "batches",
      "sessions_opened",
      "sessions_closed",
      "sessions_evicted",
      "ecos",
      "analyzes",
      "sweeps",
      "models_parsed",
      "models_reused",
  };
  ASSERT_EQ(counters.members().size(), names.size());
  for (size_t i = 0; i < names.size(); ++i)
    EXPECT_EQ(counters.members()[i].first, names[i]);
  const auto count = [&](const std::string& name) {
    return counters.at(name).as_count(name);
  };
  // Every request is answered once, ok or error; stats is counted as a
  // request and a dispatch but not yet as a response, and the unparsable
  // line is answered by submit() without a dispatch.
  EXPECT_EQ(count("requests"), 13u);
  EXPECT_EQ(count("responses_ok"), 6u);
  EXPECT_EQ(count("responses_error"), 6u);
  EXPECT_EQ(count("batches"), 12u);
  EXPECT_EQ(count("rejected_backpressure"), 0u);
  EXPECT_EQ(count("rejected_shutdown"), 0u);
  EXPECT_EQ(count("sessions_opened"), 1u);
  EXPECT_EQ(count("sessions_closed"), 1u);
  EXPECT_EQ(count("sessions_evicted"), 0u);
  EXPECT_EQ(count("ecos"), 1u);
  EXPECT_EQ(count("analyzes"), 1u);
  EXPECT_EQ(count("sweeps"), 1u);
  EXPECT_EQ(count("models_parsed"), 0u);  // the deck swaps nothing
  EXPECT_EQ(count("models_reused"), 0u);
}

// --- error paths ------------------------------------------------------------

TEST_F(ServeTest, RejectsGarbageUnknownDesignAndUnknownSession) {
  serve::Engine engine;
  fail(engine, "this is not json", serve::kBadRequest);
  fail(engine, R"({"verb":"warp"})", serve::kBadRequest);
  fail(engine, R"({"verb":"open_session","design":"ghost"})",
       serve::kUnknownDesign);
  fail(engine, R"({"verb":"analyze","session":42})", serve::kUnknownSession);
  ok(engine, load_line());
  fail(engine, load_line(), serve::kBadRequest);  // duplicate load
}

TEST_F(ServeTest, UnbuildableDesignIsABadRequest) {
  // A file the client names that does not open is the client's error, not
  // a server fault ("internal"); the name stays free for a good load.
  serve::Engine engine;
  const JsonValue doc = fail(
      engine,
      R"({"id":1,"verb":"load_design","name":"d","files":[)"
      R"("/nonexistent/a.bench",")" +
          file("b.bench") + R"("]})",
      serve::kBadRequest);
  EXPECT_EQ(doc.at("id").as_count("id"), 1u);
  EXPECT_NE(doc.at("error").as_string().find("/nonexistent/a.bench"),
            std::string::npos);
  ok(engine, load_line());
}

/// Bytes this process has read from files so far (all threads), or
/// nothing where the kernel keeps no /proc/self/io.
std::optional<uint64_t> bytes_read() {
  std::ifstream io("/proc/self/io");
  std::string key;
  uint64_t value = 0;
  while (io >> key >> value)
    if (key == "rchar:") return value;
  return std::nullopt;
}

TEST_F(ServeTest, InvalidChangeLeavesSessionUsable) {
  // A model cut inside its last edge line, before the final coefficient.
  std::ostringstream model;
  flow::load_variant_model(file("c.bench"), {})->save(model);
  const std::string text = model.str();
  const size_t cut = text.rfind(' ', text.rfind("\nend"));
  const std::string truncated = file("truncated.hstm");
  std::ofstream(truncated) << text.substr(0, cut);
  fs::create_directories(dir_ / "x.hstm");
  // 64 MiB of NULs in a sparse file: no model, and no disk space.
  const std::string big = file("big.bench");
  std::ofstream(big).close();
  fs::resize_file(big, 64u << 20);

  serve::Engine engine;
  ok(engine, load_line());
  ok(engine, R"({"verb":"open_session","design":"d"})");
  // Variant files that do not load are resolved before anything applies,
  // and refused by every verb that swaps with exactly the error a one-shot
  // load of the path throws. The refusal reads no more than format
  // prefixes: a server that read a whole file first would grow without
  // bound on a path that never ends, like /dev/zero.
  const std::vector<std::string> variants = {
      "/nonexistent/v.bench",
      file("missing.hstm"),
      truncated,
      file("x.hstm"),
      big,
      "/dev/null",
      "/dev/zero",
  };
  for (const std::string& variant : variants) {
    std::string expected;
    try {
      (void)flow::load_variant_model(variant, {});
    } catch (const std::exception& e) {
      expected = e.what();
    }
    ASSERT_FALSE(expected.empty()) << variant;
    for (const char* verb : {"eco", "analyze", "sweep"}) {
      const std::optional<uint64_t> before = bytes_read();
      const JsonValue doc = fail(engine, swap_line(1, 0, variant, verb),
                                 serve::kInvalidChange);
      EXPECT_EQ(doc.at("error").as_string(), expected)
          << verb << ' ' << variant;
      if (before) {
        EXPECT_LT(bytes_read().value() - *before, 1u << 20)
            << verb << ' ' << variant;
      }
    }
    if (variant == truncated) {
      EXPECT_NE(expected.find("model file truncated at edge coefficient"),
                std::string::npos)
          << expected;
    }
  }
  // Invalid rewire: recorded, then rejected by analyze() — which leaves
  // derived state untouched, so the session keeps working.
  fail(engine,
       R"({"verb":"analyze","session":1,"changes":[)"
       R"({"op":"rewire","conn":99,"from_inst":0,"from_port":0,)"
       R"("to_inst":1,"to_port":0}]})",
       serve::kInvalidChange);
  const JsonValue analyzed = ok(engine, R"({"verb":"analyze","session":1})");
  expect_delay_eq(analyzed.at("delay"), reference_delay());
}

// --- the model table -------------------------------------------------------

TEST_F(ServeTest, SwapRereadsARewrittenVariantFile) {
  // Two variants of one geometry, padded to one length (the loader skips
  // trailing whitespace) and later given one mtime: only their bytes
  // tell them apart.
  const std::shared_ptr<const model::TimingModel> base =
      flow::load_variant_model(file("c.bench"), {});
  std::ostringstream a_os, b_os;
  base->save(a_os);
  testing::scaled_variant(*base, 1.5)->save(b_os);
  std::string a = a_os.str(), b = b_os.str();
  const size_t size = std::max(a.size(), b.size());
  a.resize(size, '\n');
  b.resize(size, '\n');
  const std::string v = file("v.hstm");
  std::ofstream(v, std::ios::binary) << a;

  serve::Engine engine;
  ok(engine, load_line());
  ok(engine, R"({"verb":"open_session","design":"d"})");
  const JsonValue first = ok(engine, swap_line(1, 0, v));
  flow::ChainOverrides with_a;
  with_a.models[0] = flow::load_variant_model(v, {});
  expect_delay_eq(first.at("delay"), reference_delay(with_a));

  // Rewrite the file in place (same inode, size and mtime) and swap again.
  const fs::file_time_type mtime = fs::last_write_time(v);
  std::ofstream(v, std::ios::binary | std::ios::trunc) << b;
  fs::last_write_time(v, mtime);
  ASSERT_EQ(fs::file_size(v), size);
  const JsonValue second = ok(engine, swap_line(1, 0, v));
  flow::ChainOverrides with_b;
  with_b.models[0] = flow::load_variant_model(v, {});
  expect_delay_eq(second.at("delay"), reference_delay(with_b));
  EXPECT_NE(second.at("delay").at("mean").as_number(),
            first.at("delay").at("mean").as_number());
  EXPECT_EQ(counter(engine, "models_parsed"), 2u);
  EXPECT_EQ(counter(engine, "models_reused"), 0u);
}

TEST_F(ServeTest, RepeatedSwapsKeepFingerprintsAndSavedState) {
  const std::string v = variant_hstm("v.hstm");
  const std::string saved = file("s.hsds");
  serve::Engine engine;
  ok(engine, load_line());
  ok(engine, R"({"verb":"open_session","design":"d"})");
  ok(engine, swap_line(1, 0, v));
  ok(engine, swap_line(1, 1, v));
  const JsonValue swept = ok(
      engine, R"({"verb":"sweep","session":1,"scenarios":[)"
              R"({"changes":[{"op":"sigma","param":0,"scale":0.9}]}]})");
  ok(engine, R"({"verb":"save_session","session":1,"file":")" + saved +
                 R"("})");

  // The reference gives each instance its own loaded copy of the model,
  // as separate loads do: a saved state embeds one model per object, and
  // scenario fingerprints hash the saved state.
  flow::Config cfg;
  const flow::Design design = flow::build_chain_design(
      "d", {file("a.bench"), file("b.bench")}, cfg);
  (void)design.analyze_incremental();
  incr::DesignState ref = design.incremental();
  ref.replace_module(0, flow::load_variant_model(v, cfg));
  (void)ref.analyze();
  ref.replace_module(1, flow::load_variant_model(v, cfg));
  (void)ref.analyze();

  const std::vector<incr::Change> sigma = {incr::SigmaScale{0, 0.9}};
  const uint64_t fingerprint =
      incr::scenario_fingerprint(incr::state_fingerprint(ref), sigma);
  const std::vector<JsonValue>& scenarios = swept.at("scenarios").items();
  ASSERT_EQ(scenarios.size(), 1u);
  EXPECT_EQ(scenarios[0].at("fingerprint").as_string(),
            util::Fnv1a::hex(fingerprint));
  std::ostringstream want, got;
  ref.save(want);
  got << std::ifstream(saved, std::ios::binary).rdbuf();
  EXPECT_EQ(got.str(), want.str());
  EXPECT_EQ(counter(engine, "models_parsed"), 1u);
  EXPECT_EQ(counter(engine, "models_reused"), 1u);
}

TEST_F(ServeTest, ModelTableForgetsModelsNoSessionHolds) {
  const std::string v = variant_hstm("v.hstm");
  serve::Engine engine;
  ok(engine, load_line());
  ok(engine, R"({"verb":"open_session","design":"d"})");
  ok(engine, R"({"verb":"open_session","design":"d"})");
  ok(engine, swap_line(1, 0, v));
  ok(engine, swap_line(2, 0, v));
  EXPECT_EQ(counter(engine, "models_parsed"), 1u);
  EXPECT_EQ(counter(engine, "models_reused"), 1u);

  // With both sessions closed nothing holds the model, so the table lets
  // it go and the next swap of the same file parses again.
  ok(engine, R"({"verb":"close_session","session":1})");
  ok(engine, R"({"verb":"close_session","session":2})");
  ok(engine, R"({"verb":"open_session","design":"d"})");
  ok(engine, swap_line(3, 0, v));
  EXPECT_EQ(counter(engine, "models_parsed"), 2u);
  EXPECT_EQ(counter(engine, "models_reused"), 1u);
}

TEST_F(ServeTest, LoadDesignParsesEachModelFileOnce) {
  const std::string v = variant_hstm("v.hstm");
  const std::vector<std::string> files = {v, v, v};
  const std::string saved = file("s.hsds");
  serve::Engine engine;
  ok(engine, R"({"verb":"load_design","name":"h","files":[")" + v +
                 R"(",")" + v + R"(",")" + v + R"("]})");
  EXPECT_EQ(counter(engine, "models_parsed"), 1u);
  EXPECT_EQ(counter(engine, "models_reused"), 2u);
  ok(engine, R"({"verb":"open_session","design":"h"})");
  ok(engine, R"({"verb":"save_session","session":1,"file":")" + saved +
                 R"("})");
  const JsonValue swept = ok(
      engine, R"({"verb":"sweep","session":1,"scenarios":[)"
              R"({"changes":[{"op":"sigma","param":0,"scale":1.2}]}]})");

  // The one-shot build loads each file separately: the saved session and
  // the sweep's fingerprint must not tell the two apart.
  const flow::Design ref = flow::build_chain_design("h", files, {});
  (void)ref.analyze_incremental();
  std::ostringstream want, got;
  ref.incremental().save(want);
  got << std::ifstream(saved, std::ios::binary).rdbuf();
  EXPECT_EQ(got.str(), want.str());
  const std::vector<incr::Change> sigma = {incr::SigmaScale{0, 1.2}};
  const uint64_t fingerprint = incr::scenario_fingerprint(
      incr::state_fingerprint(ref.incremental()), sigma);
  const std::vector<JsonValue>& scenarios = swept.at("scenarios").items();
  ASSERT_EQ(scenarios.size(), 1u);
  EXPECT_EQ(scenarios[0].at("fingerprint").as_string(),
            util::Fnv1a::hex(fingerprint));

  // The loaded design holds copies of the parsed model, so its table
  // entry outlives every session.
  ok(engine, R"({"verb":"close_session","session":1})");
  ok(engine, R"({"verb":"open_session","design":"h"})");
  ok(engine, swap_line(2, 0, v));
  EXPECT_EQ(counter(engine, "models_parsed"), 1u);
  EXPECT_EQ(counter(engine, "models_reused"), 3u);

  // A netlist beside a .hstm keeps build_chain_design's own path.
  serve::Engine mixed;
  const JsonValue loaded =
      ok(mixed, R"({"verb":"load_design","name":"m","files":[")" +
                    file("a.bench") + R"(",")" + v + R"("]})");
  const flow::Design one_shot =
      flow::build_chain_design("m", {file("a.bench"), v}, {});
  expect_delay_eq(loaded.at("delay"), one_shot.analyze().delay());
  EXPECT_EQ(counter(mixed, "models_parsed"), 1u);
  EXPECT_EQ(counter(mixed, "models_reused"), 0u);
}

TEST_F(ServeTest, ConcurrentSwapsOfOneVariantAgree) {
  const std::string v = variant_hstm("v.hstm");
  serve::EngineOptions opts;
  opts.threads = 4;
  serve::Engine engine(opts);
  ok(engine, load_line());
  constexpr uint64_t kSessions = 4;
  for (uint64_t k = 0; k < kSessions; ++k)
    ok(engine, R"({"verb":"open_session","design":"d"})");

  // Each session has its own lane, so the swaps resolve side by side;
  // every one answers the reference delay, whichever parse the table
  // keeps.
  std::vector<std::string> responses(kSessions);
  std::vector<std::thread> threads;
  for (uint64_t k = 0; k < kSessions; ++k)
    threads.emplace_back([&engine, &responses, &v, k] {
      responses[k] = engine.request(swap_line(k + 1, 0, v));
    });
  for (std::thread& t : threads) t.join();

  flow::ChainOverrides overrides;
  overrides.models[0] = flow::load_variant_model(v, {});
  const timing::CanonicalForm expected = reference_delay(overrides);
  for (const std::string& response : responses) {
    const JsonValue doc = JsonReader::parse(response);
    ASSERT_TRUE(doc.at("ok").as_bool()) << response;
    expect_delay_eq(doc.at("delay"), expected);
  }
  const uint64_t parsed = counter(engine, "models_parsed");
  EXPECT_GE(parsed, 1u);
  EXPECT_EQ(parsed + counter(engine, "models_reused"), kSessions);
}

TEST_F(ServeTest, DoubleCloseReportsClosedNotUnknown) {
  serve::Engine engine;
  ok(engine, load_line());
  ok(engine, R"({"verb":"open_session","design":"d"})");
  const JsonValue closed =
      ok(engine, R"({"verb":"close_session","session":1})");
  EXPECT_TRUE(closed.at("closed").as_bool());
  const JsonValue again =
      fail(engine, R"({"verb":"close_session","session":1})",
           serve::kUnknownSession);
  EXPECT_NE(again.at("error").as_string().find("closed"), std::string::npos);
  fail(engine, R"({"verb":"eco","session":1,"changes":[)"
               R"({"op":"sigma","param":0,"scale":1.1}]})",
       serve::kUnknownSession);
}

TEST_F(ServeTest, IdleSessionsAreEvictedAndNamedAsSuch) {
  serve::EngineOptions opts;
  opts.idle_timeout_seconds = 0.02;
  serve::Engine engine(opts);
  ok(engine, load_line());
  ok(engine, R"({"verb":"open_session","design":"d"})");
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  // Taking any request runs the eviction sweep first.
  const JsonValue doc = fail(
      engine, R"({"verb":"analyze","session":1})", serve::kUnknownSession);
  EXPECT_NE(doc.at("error").as_string().find("evicted"), std::string::npos);
  const JsonValue stats = ok(engine, R"({"verb":"stats"})");
  EXPECT_EQ(stats.at("counters").at("sessions_evicted").as_count("n"), 1u);
}

TEST_F(ServeTest, SessionLimitSaturates) {
  serve::EngineOptions opts;
  opts.max_sessions = 2;
  serve::Engine engine(opts);
  ok(engine, load_line());
  ok(engine, R"({"verb":"open_session","design":"d"})");
  ok(engine, R"({"verb":"open_session","design":"d"})");
  fail(engine, R"({"verb":"open_session","design":"d"})", serve::kSaturated);
  ok(engine, R"({"verb":"close_session","session":1})");
  ok(engine, R"({"verb":"open_session","design":"d"})");
}

// --- static checks ----------------------------------------------------------

TEST_F(ServeTest, CheckVerbReportsCleanForLoadedDesign) {
  serve::Engine engine;
  ok(engine, load_line());
  const JsonValue checked =
      ok(engine, R"({"verb":"check","design":"d","id":3})");
  EXPECT_EQ(checked.at("id").as_count("id"), 3u);
  EXPECT_EQ(checked.at("design").as_string(), "d");
  const JsonValue& report = checked.at("report");
  EXPECT_EQ(report.at("worst").as_string(), "clean");
  EXPECT_EQ(report.at("errors").as_count("errors"), 0u);
  EXPECT_TRUE(report.at("diagnostics").items().empty());
  EXPECT_EQ(report.at("instances").as_count("instances"), 2u);

  fail(engine, R"({"verb":"check","design":"ghost"})",
       serve::kUnknownDesign);
}

TEST_F(ServeTest, LoadDesignRejectsDesignsFailingStaticChecks) {
  // A sigma-scale vector of the wrong arity is an error-severity lint
  // (HSC044): load_design must refuse to warm the design and must return
  // the structured report, not a bare exception string.
  serve::EngineOptions opts;
  opts.config.hier.param_sigma_scale = {1.0, 2.0};
  serve::Engine engine(opts);
  const JsonValue doc = fail(engine, load_line(), serve::kCheckFailed);
  EXPECT_NE(doc.at("error").as_string().find("failed static checks"),
            std::string::npos);
  const JsonValue& report = doc.at("report");
  EXPECT_EQ(report.at("worst").as_string(), "error");
  const std::vector<JsonValue>& diags = report.at("diagnostics").items();
  ASSERT_FALSE(diags.empty());
  bool saw = false;
  for (const JsonValue& d : diags)
    if (d.at("id").as_string() == "HSC044") saw = true;
  EXPECT_TRUE(saw) << "expected an HSC044 diagnostic";
  // The rejected design must not be registered.
  fail(engine, R"({"verb":"open_session","design":"d"})",
       serve::kUnknownDesign);
}

// --- session persistence ----------------------------------------------------

TEST_F(ServeTest, SessionSurvivesRestart) {
  const std::string state = (dir_ / "session.hsds").string();

  // First daemon lifetime: open a session, record an eco but do NOT
  // analyze — the pending change must survive the save.
  {
    serve::Engine engine;
    ok(engine, load_line());
    ok(engine, R"({"verb":"open_session","design":"d"})");
    ok(engine, R"({"verb":"eco","session":1,"changes":[)"
               R"({"op":"swap","inst":0,"file":")" +
                   file("c.bench") + R"("}]})");
    const JsonValue saved =
        ok(engine, R"({"verb":"save_session","session":1,"file":")" + state +
                       R"("})");
    EXPECT_TRUE(saved.at("pending").as_bool());
  }  // engine destroyed: the "crash"

  // Second daemon lifetime: no designs loaded, only the state file.
  serve::Engine engine;
  const JsonValue restored =
      ok(engine, R"({"verb":"restore_session","file":")" + state + R"("})");
  const uint64_t sid = restored.at("session").as_count("session");
  EXPECT_EQ(restored.at("design").as_string(), "d");

  const JsonValue analyzed = ok(
      engine, R"({"verb":"analyze","session":)" + std::to_string(sid) + "}");
  flow::ChainOverrides overrides;
  overrides.models[0] = flow::load_variant_model(file("c.bench"), {});
  expect_delay_eq(analyzed.at("delay"), reference_delay(overrides));

  // The restored session keeps working: stack a second eco on top.
  const JsonValue again = ok(
      engine, R"({"verb":"analyze","session":)" + std::to_string(sid) +
                  R"(,"changes":[{"op":"sigma","param":0,"scale":1.5}]})");
  EXPECT_NE(again.at("delay").at("mean").as_number(),
            analyzed.at("delay").at("mean").as_number());
}

TEST_F(ServeTest, SaveAndRestoreSessionErrors) {
  serve::Engine engine;
  ok(engine, load_line());
  fail(engine, R"({"verb":"save_session","session":7,"file":"/tmp/x"})",
       serve::kUnknownSession);
  fail(engine,
       R"({"verb":"restore_session","file":")" + file("nope.hsds") + R"("})",
       serve::kBadRequest);
  // A netlist is not a design state: the strict parser must name the
  // format, not crash.
  const JsonValue err = fail(
      engine, R"({"verb":"restore_session","file":")" + file("a.bench") +
                  R"("})",
      serve::kBadRequest);
  EXPECT_FALSE(err.at("error").as_string().empty());
}

// --- concurrency ------------------------------------------------------------

TEST_F(ServeTest, ConcurrentRequestsOnOneSessionSerializeDeterministically) {
  serve::EngineOptions opts;
  opts.threads = 4;
  serve::Engine engine(opts);
  ok(engine, load_line());
  ok(engine, R"({"verb":"open_session","design":"d"})");

  // Serial references: set_parameter_sigma is absolute, so each analyze
  // response depends only on its own request's scale — any serialization
  // order must produce exactly these numbers.
  std::map<int, timing::CanonicalForm> expected;
  {
    flow::Config cfg;
    flow::Design ref = flow::build_chain_design(
        "ref", {file("a.bench"), file("b.bench")}, cfg);
    incr::DesignState& st = ref.incremental();
    for (int k = 0; k < 8; ++k) {
      st.set_parameter_sigma(0, 1.0 + 0.1 * k);
      expected.emplace(k, st.analyze());
    }
  }

  std::vector<std::thread> threads;
  std::vector<std::string> responses(8);
  for (int k = 0; k < 8; ++k)
    threads.emplace_back([&engine, &responses, k] {
      // %.17g, not to_string: the wire scale must round-trip to the exact
      // double the serial reference used.
      char scale[32];
      std::snprintf(scale, sizeof scale, "%.17g", 1.0 + 0.1 * k);
      responses[k] = engine.request(
          std::string(R"({"verb":"analyze","session":1,"changes":[)"
                      R"({"op":"sigma","param":0,"scale":)") +
          scale + "}]}");
    });
  for (std::thread& t : threads) t.join();

  for (int k = 0; k < 8; ++k) {
    const JsonValue doc = JsonReader::parse(responses[k]);
    ASSERT_TRUE(doc.at("ok").as_bool()) << responses[k];
    expect_delay_eq(doc.at("delay"), expected.at(k));
  }
}

TEST_F(ServeTest, BackpressureRejectsWhenQueueIsFull) {
  serve::EngineOptions opts;
  opts.queue_capacity = 1;
  serve::Engine engine(opts);

  // Occupy the control lane with an expensive load (model extraction),
  // then flood it: the stats wait behind the load, so with capacity 1
  // most of the flood must bounce immediately.
  std::atomic<int> ok_count{0}, backpressure{0}, done{0};
  engine.submit(load_line(), [&](std::string response) {
    if (response.find("\"ok\":true") != std::string::npos) ++ok_count;
    ++done;
  });
  constexpr int kFlood = 50;
  for (int i = 0; i < kFlood; ++i)
    engine.submit(R"({"verb":"stats"})", [&](std::string response) {
      const JsonValue doc = JsonReader::parse(response);
      if (doc.at("ok").as_bool())
        ++ok_count;
      else if (doc.at("code").as_string() == "backpressure")
        ++backpressure;
      ++done;
    });
  while (done.load() < kFlood + 1)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));

  EXPECT_GE(ok_count.load(), 1);  // the load itself, plus accepted stats
  EXPECT_GT(backpressure.load(), 0);
  EXPECT_EQ(ok_count.load() + backpressure.load(), kFlood + 1);
}

TEST_F(ServeTest, ZeroQueueCapacityIsRejected) {
  serve::EngineOptions opts;
  opts.queue_capacity = 0;
  EXPECT_THROW({ serve::Engine engine(opts); }, Error);
}

TEST_F(ServeTest, ShutdownDrainsInFlightWorkThenRejects) {
  serve::Engine engine;
  ok(engine, load_line());
  ok(engine, R"({"verb":"open_session","design":"d"})");

  // Pipeline a sweep and the shutdown without waiting: both were accepted,
  // so both must be answered (the sweep completely) before the engine
  // reports stopped.
  std::atomic<bool> sweep_ok{false}, shutdown_ok{false};
  engine.submit(
      R"({"verb":"sweep","session":1,"scenarios":[)"
      R"({"changes":[{"op":"sigma","param":0,"scale":0.9}]},)"
      R"({"changes":[{"op":"sigma","param":0,"scale":1.1}]}]})",
      [&](std::string response) {
        const JsonValue doc = JsonReader::parse(response);
        sweep_ok = doc.at("ok").as_bool() &&
                   doc.at("scenarios").items().size() == 2;
      });
  engine.submit(R"({"verb":"shutdown"})", [&](std::string response) {
    shutdown_ok = JsonReader::parse(response).at("ok").as_bool();
  });
  engine.wait_until_stopped();
  EXPECT_TRUE(sweep_ok.load());
  EXPECT_TRUE(shutdown_ok.load());

  const std::string rejected = engine.request(R"({"verb":"stats"})");
  const JsonValue doc = JsonReader::parse(rejected);
  EXPECT_FALSE(doc.at("ok").as_bool());
  EXPECT_EQ(doc.at("code").as_string(), "shutting_down");
}

TEST_F(ServeTest, SlowRequestDoesNotHoldOtherSessions) {
  serve::EngineOptions opts;
  opts.threads = 2;
  serve::Engine engine(opts);
  ok(engine, load_line());
  ok(engine, R"({"verb":"open_session","design":"d"})");

  // The load takes the control lane first; the session's analyze,
  // submitted after it, runs on its own lane and must be answered first.
  std::atomic<int> finished{0};
  int load_rank = -1, analyze_rank = -1;
  std::promise<std::string> load_done, analyze_done;
  engine.submit(slow_load_line(1), [&](std::string response) {
    load_rank = finished++;
    load_done.set_value(std::move(response));
  });
  const std::string analyze = R"({"verb":"analyze","session":1})";
  engine.submit(analyze, [&](std::string response) {
    analyze_rank = finished++;
    analyze_done.set_value(std::move(response));
  });
  const JsonValue analyzed = JsonReader::parse(analyze_done.get_future().get());
  const JsonValue loaded = JsonReader::parse(load_done.get_future().get());
  EXPECT_EQ(analyze_rank, 0);
  EXPECT_EQ(load_rank, 1);
  EXPECT_TRUE(loaded.at("ok").as_bool());
  ASSERT_TRUE(analyzed.at("ok").as_bool());
  expect_delay_eq(analyzed.at("delay"), reference_delay());
}

TEST_F(ServeTest, EvictionSweepsBesideConcurrentSessions) {
  serve::EngineOptions opts;
  opts.threads = 4;
  opts.idle_timeout_seconds = 60.0;
  serve::Engine engine(opts);
  ok(engine, load_line());
  constexpr int kSessions = 8, kRounds = 5;
  for (int s = 0; s < kSessions; ++s)
    ok(engine, R"({"verb":"open_session","design":"d"})");

  // Serial references per sigma scale (absolute, as in the serialization
  // test above).
  std::map<int, timing::CanonicalForm> expected;
  {
    flow::Config cfg;
    flow::Design ref = flow::build_chain_design(
        "ref", {file("a.bench"), file("b.bench")}, cfg);
    incr::DesignState& st = ref.incremental();
    for (int k = 0; k < kRounds; ++k) {
      st.set_parameter_sigma(0, 1.0 + 0.1 * k);
      expected.emplace(k, st.analyze());
    }
  }

  // Every request a worker takes runs an eviction sweep while the other
  // sessions' analyzes run: none may be evicted, none may fail.
  std::vector<std::thread> threads;
  std::vector<std::string> failures(kSessions);
  for (int s = 0; s < kSessions; ++s)
    threads.emplace_back([&, s] {
      for (int k = 0; k < kRounds; ++k) {
        char scale[32];
        std::snprintf(scale, sizeof scale, "%.17g", 1.0 + 0.1 * k);
        const std::string response = engine.request(
            R"({"verb":"analyze","session":)" + std::to_string(s + 1) +
            R"(,"changes":[{"op":"sigma","param":0,"scale":)" + scale +
            "}]}");
        const JsonValue doc = JsonReader::parse(response);
        if (!doc.at("ok").as_bool()) {
          failures[s] = response;
          return;
        }
        const JsonValue& delay = doc.at("delay");
        if (delay.at("mean").as_number() != expected.at(k).nominal() ||
            delay.at("sigma").as_number() != expected.at(k).sigma()) {
          failures[s] = "delay mismatch vs one-shot reference";
          return;
        }
      }
    });
  for (std::thread& t : threads) t.join();
  for (int s = 0; s < kSessions; ++s)
    EXPECT_EQ(failures[s], "") << "session " << s + 1;

  const JsonValue stats = ok(engine, R"({"verb":"stats"})");
  const JsonValue& counters = stats.at("counters");
  EXPECT_EQ(counters.at("sessions_evicted").as_count("n"), 0u);
  EXPECT_EQ(counters.at("analyzes").as_count("n"),
            uint64_t{kSessions * kRounds});
}

// --- socket transport -------------------------------------------------------

TEST_F(ServeTest, SocketEndToEndWithEightConcurrentClients) {
  serve::EngineOptions opts;
  opts.threads = 4;
  serve::Engine engine(opts);
  const std::string socket_path = (dir_ / "serve.sock").string();
  serve::SocketServer server(engine, socket_path);

  {
    serve::Client setup(socket_path);
    const JsonValue loaded = JsonReader::parse(setup.request(load_line()));
    ASSERT_TRUE(loaded.at("ok").as_bool());
  }

  // Per-scale serial references (see the serialization test above).
  std::map<int, timing::CanonicalForm> expected;
  {
    flow::Config cfg;
    flow::Design ref = flow::build_chain_design(
        "ref", {file("a.bench"), file("b.bench")}, cfg);
    incr::DesignState& st = ref.incremental();
    for (int k = 0; k < 8; ++k) {
      st.set_parameter_sigma(0, 1.0 + 0.05 * k);
      expected.emplace(k, st.analyze());
    }
  }

  // 8 clients, each with a private session, concurrently: every response
  // must be bit-identical to its one-shot reference.
  std::vector<std::thread> clients;
  std::vector<std::string> failures(8);
  for (int k = 0; k < 8; ++k)
    clients.emplace_back([&, k] {
      try {
        serve::Client client(socket_path);
        const JsonValue opened = JsonReader::parse(
            client.request(R"({"verb":"open_session","design":"d"})"));
        if (!opened.at("ok").as_bool()) {
          failures[k] = "open failed";
          return;
        }
        const uint64_t sid = opened.at("session").as_count("session");
        const std::string scale = std::to_string(1.0 + 0.05 * k);
        const JsonValue analyzed = JsonReader::parse(client.request(
            R"({"verb":"analyze","session":)" + std::to_string(sid) +
            R"(,"changes":[{"op":"sigma","param":0,"scale":)" + scale +
            "}]}"));
        if (!analyzed.at("ok").as_bool()) {
          failures[k] = "analyze failed";
          return;
        }
        const JsonValue& delay = analyzed.at("delay");
        if (delay.at("mean").as_number() != expected.at(k).nominal() ||
            delay.at("sigma").as_number() != expected.at(k).sigma())
          failures[k] = "delay mismatch vs one-shot reference";
        const JsonValue closed = JsonReader::parse(client.request(
            R"({"verb":"close_session","session":)" + std::to_string(sid) +
            "}"));
        if (!closed.at("ok").as_bool()) failures[k] = "close failed";
      } catch (const std::exception& e) {
        failures[k] = e.what();
      }
    });
  for (std::thread& t : clients) t.join();
  for (int k = 0; k < 8; ++k) EXPECT_EQ(failures[k], "") << "client " << k;

  serve::Client finisher(socket_path);
  const JsonValue stats =
      JsonReader::parse(finisher.request(R"({"verb":"stats"})"));
  EXPECT_EQ(stats.at("counters").at("sessions_opened").as_count("n"), 8u);
  EXPECT_EQ(stats.at("counters").at("sessions_closed").as_count("n"), 8u);
  const JsonValue bye =
      JsonReader::parse(finisher.request(R"({"verb":"shutdown"})"));
  EXPECT_TRUE(bye.at("ok").as_bool());
  engine.wait_until_stopped();
  server.stop();
  EXPECT_FALSE(fs::exists(socket_path));
}

TEST_F(ServeTest, SessionsSurviveClientDisconnects) {
  serve::Engine engine;
  const std::string socket_path = (dir_ / "serve.sock").string();
  serve::SocketServer server(engine, socket_path);

  uint64_t sid = 0;
  {
    serve::Client first(socket_path);
    ASSERT_TRUE(
        JsonReader::parse(first.request(load_line())).at("ok").as_bool());
    const JsonValue opened = JsonReader::parse(
        first.request(R"({"verb":"open_session","design":"d"})"));
    sid = opened.at("session").as_count("session");
  }  // disconnect

  serve::Client second(socket_path);
  const JsonValue analyzed = JsonReader::parse(second.request(
      R"({"verb":"analyze","session":)" + std::to_string(sid) + "}"));
  EXPECT_TRUE(analyzed.at("ok").as_bool());
  expect_delay_eq(analyzed.at("delay"), reference_delay());
  engine.request_stop();
  engine.wait_until_stopped();
  server.stop();
}

TEST_F(ServeTest, PipelinedResponsesKeepConnectionOrder) {
  serve::EngineOptions opts;
  opts.threads = 2;
  serve::Engine engine(opts);
  const std::string socket_path = (dir_ / "serve.sock").string();
  serve::SocketServer server(engine, socket_path);
  serve::Client client(socket_path);
  ASSERT_TRUE(
      JsonReader::parse(client.request(load_line())).at("ok").as_bool());
  const std::string open = R"({"verb":"open_session","design":"d"})";
  const uint64_t sid =
      JsonReader::parse(client.request(open)).at("session").as_count("session");

  // The engine answers the analyze first (its own lane) and the stats
  // last (behind the load on the control lane); the connection still
  // reads the three responses in request order.
  client.send(slow_load_line(1));
  client.send(R"({"verb":"stats","id":2})");
  client.send(R"({"verb":"analyze","id":3,"session":)" +
              std::to_string(sid) + "}");
  for (uint64_t id = 1; id <= 3; ++id) {
    const std::string response = client.recv();
    const JsonValue doc = JsonReader::parse(response);
    EXPECT_EQ(doc.at("id").as_count("id"), id) << response;
    EXPECT_TRUE(doc.at("ok").as_bool()) << response;
  }
  engine.request_stop();
  engine.wait_until_stopped();
  server.stop();
}

/// Entries of a /proc/self directory: open fds or live threads.
size_t proc_entries(const char* dir) {
  return static_cast<size_t>(std::distance(fs::directory_iterator(dir),
                                           fs::directory_iterator{}));
}

TEST_F(ServeTest, ConnectionCyclesLeakNoFdsOrThreads) {
  serve::Engine engine;
  const std::string socket_path = (dir_ / "serve.sock").string();
  serve::SocketServer server(engine, socket_path);
  const size_t fds = proc_entries("/proc/self/fd");
  const size_t tasks = proc_entries("/proc/self/task");

  for (int k = 0; k < 500; ++k) serve::Client client(socket_path);

  // The daemon still serves. The acceptor takes queued connections in
  // order, so once this answer arrives every earlier connection has been
  // accepted: from here the fd and task counts can only fall.
  {
    serve::Client client(socket_path);
    EXPECT_TRUE(JsonReader::parse(client.request(R"({"verb":"stats"})"))
                    .at("ok")
                    .as_bool());
  }

  // Readers see each EOF asynchronously: wait for the last ones to close
  // their fds and exit.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while ((proc_entries("/proc/self/fd") != fds ||
          proc_entries("/proc/self/task") != tasks) &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(proc_entries("/proc/self/fd"), fds);
  EXPECT_EQ(proc_entries("/proc/self/task"), tasks);
  engine.request_stop();
  engine.wait_until_stopped();
  server.stop();
}

TEST_F(ServeTest, OverlongLineIsRejectedThenDisconnected) {
  serve::Engine engine;
  const std::string socket_path = (dir_ / "serve.sock").string();
  serve::SocketServer server(engine, socket_path);
  serve::Client good(socket_path);
  ASSERT_TRUE(JsonReader::parse(good.request(load_line())).at("ok").as_bool());
  const uint64_t sid =
      JsonReader::parse(good.request(R"({"verb":"open_session","design":"d"})"))
          .at("session")
          .as_count("session");

  // A raw client streams one byte past the limit and never sends '\n'.
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  // A server that never answers fails the test instead of hanging it.
  const timeval timeout{30, 0};
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                         sizeof(timeout)),
            0);
  ASSERT_EQ(
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
      0);
  const std::string flood(serve::kMaxRequestLineBytes + 1, 'x');
  for (size_t off = 0; off < flood.size();) {
    const ssize_t n = ::send(fd, flood.data() + off, flood.size() - off,
                             MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    ASSERT_GT(n, 0) << std::strerror(errno);
    off += static_cast<size_t>(n);
  }
  // Everything the server sends until it closes the connection.
  std::string reply;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    reply.append(chunk, static_cast<size_t>(n));
  }
  ::close(fd);
  ASSERT_FALSE(reply.empty());
  EXPECT_EQ(reply.find('\n'), reply.size() - 1) << "exactly one line";
  const JsonValue doc = JsonReader::parse(reply.substr(0, reply.size() - 1));
  EXPECT_FALSE(doc.at("ok").as_bool());
  EXPECT_EQ(doc.at("code").as_string(), "bad_request");
  EXPECT_NE(doc.at("error").as_string().find(
                std::to_string(serve::kMaxRequestLineBytes)),
            std::string::npos)
      << reply;

  // The other client's session is untouched.
  const JsonValue analyzed = JsonReader::parse(good.request(
      R"({"verb":"analyze","session":)" + std::to_string(sid) + "}"));
  EXPECT_TRUE(analyzed.at("ok").as_bool());
  expect_delay_eq(analyzed.at("delay"), reference_delay());
  engine.request_stop();
  engine.wait_until_stopped();
  server.stop();
}

// --- stream transport (hssta_serve --stdio) ---------------------------------

TEST_F(ServeTest, StdioAnswersEachRequestAndSkipsBlanksAndComments) {
  serve::Engine engine;
  // The last request has no newline: it still counts, as for getline.
  std::istringstream in("# annotated transcript\n\n" + load_line() +
                        "\n{\"verb\":\"stats\"}");
  std::ostringstream out;
  serve::serve_stream(engine, in, out);
  EXPECT_TRUE(engine.stopped());

  std::istringstream replies(out.str());
  std::string loaded, stats, extra;
  ASSERT_TRUE(std::getline(replies, loaded)) << out.str();
  ASSERT_TRUE(std::getline(replies, stats)) << out.str();
  EXPECT_FALSE(std::getline(replies, extra)) << out.str();
  expect_delay_eq(JsonReader::parse(loaded).at("delay"), reference_delay());
  EXPECT_TRUE(JsonReader::parse(stats).at("ok").as_bool()) << stats;
}

TEST_F(ServeTest, StdioOverlongLineIsRejectedThenStops) {
  serve::Engine engine;
  // One byte past the limit, then a valid request that must go unanswered.
  std::istringstream in(std::string(serve::kMaxRequestLineBytes + 1, 'x') +
                        "\n{\"verb\":\"stats\"}\n");
  std::ostringstream out;
  serve::serve_stream(engine, in, out);
  EXPECT_TRUE(engine.stopped());

  const std::string reply = out.str();
  ASSERT_FALSE(reply.empty());
  EXPECT_EQ(reply.find('\n'), reply.size() - 1) << "exactly one line";
  const JsonValue doc = JsonReader::parse(reply.substr(0, reply.size() - 1));
  EXPECT_FALSE(doc.at("ok").as_bool());
  EXPECT_EQ(doc.at("code").as_string(), "bad_request");
  EXPECT_NE(doc.at("error").as_string().find(
                std::to_string(serve::kMaxRequestLineBytes)),
            std::string::npos)
      << reply;
}

}  // namespace
}  // namespace hssta
