// Campaign subsystem tests: DesignState serialization (round-trip
// bit-identity, strict named errors), content fingerprints, campaign spec
// parsing + deterministic expansion, the worker wire protocol, and
// resumable sharded execution — in-process and across real worker
// subprocesses — with merged reports byte-identical to the serial
// reference run.

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "hssta/campaign/campaign.hpp"
#include "hssta/campaign/spec.hpp"
#include "hssta/flow/chain.hpp"
#include "hssta/flow/flow.hpp"
#include "hssta/flow/report.hpp"
#include "hssta/incr/design_state.hpp"
#include "hssta/incr/scenario.hpp"
#include "hssta/util/error.hpp"
#include "hssta/util/hash.hpp"
#include "hssta/util/json.hpp"

namespace hssta {
namespace {

namespace fs = std::filesystem;

// Geometry-compatible module trio (same footprint, different topology) —
// the serve_test fixture modules.
constexpr const char* kModuleA =
    "INPUT(a)\nINPUT(b)\nOUTPUT(x)\nOUTPUT(y)\n"
    "g = NAND(a, b)\nx = AND(g, a)\ny = OR(g, b)\n";
constexpr const char* kModuleB =
    "INPUT(p)\nINPUT(q)\nOUTPUT(s)\nOUTPUT(t)\n"
    "h = NAND(q, p)\ns = OR(h, p)\nt = AND(h, q)\n";
constexpr const char* kModuleC =
    "INPUT(a)\nINPUT(b)\nOUTPUT(x)\nOUTPUT(y)\n"
    "g = OR(a, b)\nx = NAND(g, b)\ny = AND(g, a)\n";

class CampaignTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::temp_directory_path() /
           ("hssta_campaign_" + std::string(info->test_suite_name()) + "_" +
            info->name() + "_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    write("a.bench", kModuleA);
    write("b.bench", kModuleB);
    write("c.bench", kModuleC);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  void write(const std::string& name, const std::string& text) const {
    std::ofstream(dir_ / name) << text;
  }

  [[nodiscard]] std::string file(const std::string& name) const {
    return (dir_ / name).string();
  }

  /// A fresh a->b chain (the serialization suites' base). The campaign
  /// names its base design after the spec, and the name serializes into
  /// the state fingerprint — tests that re-derive campaign fingerprints
  /// must pass the spec's name.
  [[nodiscard]] flow::Design make_chain(const std::string& name = "d") const {
    return flow::build_chain_design(name, {file("a.bench"), file("b.bench")},
                                    flow::Config{});
  }

  /// The standard 3x2 campaign spec (sigma x swap) written to disk, over
  /// an a->b chain or a star whose combiner b reads leaves a and c.
  [[nodiscard]] std::string write_spec(
      const std::string& topology = "chain") const {
    const std::string files = topology == "star"
                                  ? R"(["a.bench", "c.bench", "b.bench"])"
                                  : R"(["a.bench", "b.bench"])";
    write("spec.json", R"({
      "name": "grid",
      "base": {"topology": ")" + topology + R"(", "files": )" + files + R"(},
      "axes": [
        {"type": "sigma", "param": 0, "scales": [0.9, 1.0, 1.1]},
        {"type": "swap", "inst": 0, "files": ["a.bench", "c.bench"]}
      ]
    })");
    return file("spec.json");
  }

  [[nodiscard]] campaign::CampaignOptions opts(const std::string& out,
                                               size_t workers = 0,
                                               size_t limit = 0) const {
    campaign::CampaignOptions o;
    o.out_dir = (dir_ / out).string();
    o.workers = workers;
    o.limit = limit;
    return o;
  }

  static std::string slurp(const std::string& path) {
    std::ifstream is(path);
    EXPECT_TRUE(is.good()) << path;
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
  }

  fs::path dir_;
};

// --- DesignState serialization ----------------------------------------------

using CampaignSerializeTest = CampaignTest;

TEST_F(CampaignSerializeTest, RoundTripAnalyzeBitIdenticalForEveryChangeKind) {
  const flow::Design base = make_chain();
  const auto variant = flow::load_variant_model(file("c.bench"), {});
  const std::vector<incr::Change> kinds{
      incr::ReplaceModule{0, variant},
      incr::MoveInstance{1, 7.5, 3.25},
      incr::RewireConnection{1, hier::PortRef{0, 0}, hier::PortRef{1, 1}},
      incr::SigmaScale{0, 1.3},
  };
  for (const incr::Change& change : kinds) {
    incr::DesignState st(base.incremental().inputs());
    incr::apply_change(st, change);
    const timing::CanonicalForm expected = st.analyze();

    std::ostringstream os;
    st.save(os);
    std::istringstream is(os.str());
    incr::DesignState loaded = incr::DesignState::load(is);
    EXPECT_TRUE(loaded.pending()) << "a loaded state must rebuild on first "
                                     "analyze";
    EXPECT_TRUE(loaded.analyze() == expected)
        << "round trip changed bits for: " << incr::describe_change(change);

    // The save is canonical: saving the loaded state reproduces it byte
    // for byte, so content fingerprints are stable across generations.
    std::ostringstream os2;
    loaded.save(os2);
    EXPECT_EQ(os.str(), os2.str());
    EXPECT_EQ(incr::state_fingerprint(st), incr::state_fingerprint(loaded));
  }
}

TEST_F(CampaignSerializeTest, PendingChangesSurviveTheSave) {
  const flow::Design base = make_chain();
  incr::DesignState st(base.incremental().inputs());
  (void)st.analyze();
  st.set_parameter_sigma(0, 1.4);
  st.move_instance(0, 2.0, 1.0);
  ASSERT_TRUE(st.pending());

  std::ostringstream os;
  st.save(os);  // saved with the changes recorded but not analyzed
  std::istringstream is(os.str());
  incr::DesignState loaded = incr::DesignState::load(is);
  EXPECT_TRUE(loaded.analyze() == st.analyze());
}

TEST_F(CampaignSerializeTest, EmbeddedModelsRoundTrip) {
  // A chain built from a pre-extracted .hstm exercises the embedded-model
  // payload (length-prefixed, content-hashed) instead of the .bench path.
  const flow::Module m = flow::Module::from_file(file("a.bench"), {});
  m.extract_model().model.save_file(file("a.hstm"));
  const flow::Design base = flow::build_chain_design(
      "hm", {file("a.hstm"), file("b.bench")}, flow::Config{});
  incr::DesignState st(base.incremental().inputs());
  const timing::CanonicalForm expected = st.analyze();

  std::ostringstream os;
  st.save(os);
  std::istringstream is(os.str());
  incr::DesignState loaded = incr::DesignState::load(is);
  EXPECT_TRUE(loaded.analyze() == expected);
}

TEST_F(CampaignSerializeTest, StrictParserNamesEveryFailureMode) {
  const flow::Design base = make_chain();
  incr::DesignState st(base.incremental().inputs());
  (void)st.analyze();
  std::ostringstream os;
  st.save(os);
  const std::string text = os.str();

  auto load_text = [](const std::string& t) {
    std::istringstream is(t);
    return incr::DesignState::load(is);
  };
  auto expect_error = [&](const std::string& t, const std::string& what) {
    try {
      (void)load_text(t);
      FAIL() << "expected a load error mentioning '" << what << "'";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
          << e.what();
    }
  };

  expect_error("", "truncated");
  expect_error(text.substr(0, text.size() / 2), "truncated");
  expect_error("garbage garbage\n", "design state");
  expect_error("hsds 99\n", "unsupported design state format version 99");
  expect_error(text + "trailing\n", "trailing");

  // Corrupting a count must fail loudly, not mis-parse.
  const size_t pos = text.find("instances ");
  ASSERT_NE(pos, std::string::npos);
  std::string corrupt = text;
  corrupt.replace(pos, std::string("instances 2").size(), "instances 9");
  EXPECT_THROW((void)load_text(corrupt), Error);
}

// --- content fingerprints ---------------------------------------------------

using FingerprintTest = CampaignTest;

TEST_F(FingerprintTest, ScenarioFingerprintSeparatesChangesAndBases) {
  const flow::Design base = make_chain();
  incr::DesignState& st = base.incremental();
  (void)st.analyze();
  const uint64_t fp = incr::state_fingerprint(st);

  const std::vector<incr::Change> a{incr::SigmaScale{0, 1.1}};
  const std::vector<incr::Change> b{incr::SigmaScale{0, 1.2}};
  const std::vector<incr::Change> c{incr::SigmaScale{1, 1.1}};
  EXPECT_NE(incr::scenario_fingerprint(fp, a), incr::scenario_fingerprint(fp, b));
  EXPECT_NE(incr::scenario_fingerprint(fp, a), incr::scenario_fingerprint(fp, c));
  EXPECT_NE(incr::scenario_fingerprint(fp, a),
            incr::scenario_fingerprint(fp + 1, a));
  EXPECT_EQ(incr::scenario_fingerprint(fp, a), incr::scenario_fingerprint(fp, a));

  // Swapped models hash by content, not by pointer: two loads of the same
  // variant file produce the same fingerprint.
  const std::vector<incr::Change> s1{
      incr::ReplaceModule{0, flow::load_variant_model(file("c.bench"), {})}};
  const std::vector<incr::Change> s2{
      incr::ReplaceModule{0, flow::load_variant_model(file("c.bench"), {})}};
  EXPECT_EQ(incr::scenario_fingerprint(fp, s1),
            incr::scenario_fingerprint(fp, s2));
}

TEST_F(FingerprintTest, RunnerStampsTheCampaignJoinKey) {
  const flow::Design base = make_chain();
  incr::DesignState& st = base.incremental();
  (void)st.analyze();
  const incr::ScenarioRunner runner(st);
  EXPECT_EQ(runner.base_fingerprint(), incr::state_fingerprint(st));

  const std::vector<incr::Scenario> scenarios{
      {"s", {incr::SigmaScale{0, 1.1}}}};
  const std::vector<incr::ScenarioResult> rs = runner.run(scenarios);
  ASSERT_EQ(rs.size(), 1u);
  EXPECT_EQ(rs[0].fingerprint,
            incr::scenario_fingerprint(runner.base_fingerprint(),
                                       scenarios[0].changes));
  EXPECT_NE(rs[0].fingerprint, 0u);

  // The sweep report emits it as the 16-hex-digit join key.
  const std::string json = flow::sweep_report_json(base, rs);
  EXPECT_NE(json.find("\"fingerprint\":\"" +
                      util::Fnv1a::hex(rs[0].fingerprint) + "\""),
            std::string::npos)
      << json;
}

TEST_F(FingerprintTest, ValuesArePinned) {
  // Fingerprints name campaign shards and join sweep reports across runs
  // and builds, so they must not move when the way states and models are
  // saved or hashed changes. The models extract in-process: a libm that
  // rounds a transcendental differently moves these values too.
  const flow::Config cfg;
  const std::string s27 = std::string(HSSTA_TESTDATA_DIR) + "/s27.bench";
  flow::Module::from_file(file("a.bench"), cfg).model().save_file(
      file("a.hstm"));
  flow::Module::from_file(file("b.bench"), cfg).model().save_file(
      file("b.hstm"));
  flow::Module::from_file(s27, cfg).model().save_file(file("s27.hstm"));
  const auto c = flow::load_variant_model(file("c.bench"), cfg);
  const auto seq = flow::load_variant_model(file("s27.hstm"), cfg);
  ASSERT_TRUE(seq->is_sequential());

  struct Pinned {
    const char* state;
    const char* sigma;
    const char* swap;
    const char* sigma_swap;
  };
  const auto expect_pinned =
      [&](const incr::DesignState& st,
          const std::shared_ptr<const model::TimingModel>& variant,
          const Pinned& want) {
        const uint64_t fp = incr::state_fingerprint(st);
        const incr::Change sigma = incr::SigmaScale{0, 1.2};
        const incr::Change swap = incr::ReplaceModule{1, variant};
        const auto scenario = [fp](std::vector<incr::Change> changes) {
          return util::Fnv1a::hex(incr::scenario_fingerprint(fp, changes));
        };
        EXPECT_EQ(util::Fnv1a::hex(fp), want.state);
        EXPECT_EQ(scenario({sigma}), want.sigma);
        EXPECT_EQ(scenario({swap}), want.swap);
        EXPECT_EQ(scenario({sigma, swap}), want.sigma_swap);
        // The state fingerprint is util::Fnv1a::str of the saved bytes.
        st.save_file(file("st.hsds"));
        EXPECT_EQ(fp, util::Fnv1a().str(slurp(file("st.hsds"))).value());
      };

  {
    SCOPED_TRACE("chain from .bench");
    const flow::Design base = make_chain();
    incr::DesignState& st = base.incremental();
    (void)st.analyze();
    expect_pinned(st, c,
                  {"fdb3b0fe17c695a7", "7e9c2d5b64e9ab4f", "dfe3f23f1168f0bb",
                   "e2d87d1f7a536eb0"});
  }
  {
    SCOPED_TRACE("chain from .hstm, one swap applied, one change pending");
    const flow::Design base = flow::build_chain_design(
        "h", {file("a.hstm"), file("b.hstm")}, cfg);
    incr::DesignState st = base.incremental();
    st.replace_module(0, c);
    (void)st.analyze();
    st.set_parameter_sigma(1, 1.3);
    ASSERT_TRUE(st.pending());
    expect_pinned(st, c,
                  {"b1fd3738b761fd87", "66bab22da9f3f9a9", "77fb458334bc3e2d",
                   "5ca4f8f9b704c892"});
  }
  {
    SCOPED_TRACE("chain in global-only mode");
    flow::Config global = cfg;
    global.hier.mode = hier::CorrelationMode::kGlobalOnly;
    const flow::Design base = flow::build_chain_design(
        "g", {file("a.bench"), file("b.bench")}, global);
    incr::DesignState& st = base.incremental();
    (void)st.analyze();
    expect_pinned(st, c,
                  {"5e848f1024530d48", "e44c2c17664856d9", "6a776f0bd704f53d",
                   "f1a96467d6d8b322"});
  }
  {
    SCOPED_TRACE("chain embedding s27's hstm 2 model");
    const flow::Design base = flow::build_chain_design(
        "s", {file("s27.hstm"), file("s27.hstm")}, cfg);
    incr::DesignState& st = base.incremental();
    (void)st.analyze();
    expect_pinned(st, seq,
                  {"b322bd57ef0ddd13", "3e4e457c6d1822e5", "fe7afef459caee8d",
                   "244b52fd879b9e6a"});
  }
}

// --- campaign spec ----------------------------------------------------------

using SpecTest = CampaignTest;

TEST_F(SpecTest, ParsesAndExpandsDeterministically) {
  const campaign::CampaignSpec spec =
      campaign::parse_campaign_file(write_spec());
  EXPECT_EQ(spec.name, "grid");
  EXPECT_EQ(spec.topology, "chain");
  ASSERT_EQ(spec.files.size(), 2u);
  EXPECT_EQ(spec.files[0], file("a.bench"));  // resolved against the spec dir
  ASSERT_EQ(spec.axes.size(), 2u);

  const std::vector<campaign::CampaignScenario> scs = campaign::expand(spec);
  ASSERT_EQ(scs.size(), 6u);
  // Odometer order, last axis fastest.
  EXPECT_EQ(scs[0].label, "p0x0.9|u0=a.bench");
  EXPECT_EQ(scs[1].label, "p0x0.9|u0=c.bench");
  EXPECT_EQ(scs[2].label, "p0x1|u0=a.bench");
  EXPECT_EQ(scs[5].label, "p0x1.1|u0=c.bench");
  for (size_t i = 0; i < scs.size(); ++i) {
    EXPECT_EQ(scs[i].index, i);
    EXPECT_EQ(scs[i].changes.size(), 2u);
  }
}

TEST_F(SpecTest, RejectsDuplicatesUnknownKeysAndBadAxes) {
  auto parse = [](const std::string& text) {
    return campaign::parse_campaign(util::JsonReader::parse(text), "");
  };
  const std::string base =
      R"("base": {"topology": "chain", "files": ["a", "b"]})";

  EXPECT_THROW((void)campaign::expand(parse(
                   R"({"name": "n", )" + base + R"(, "axes": [)"
                   R"({"type": "sigma", "param": 0, "scales": [1.1, 1.1]}]})")),
               Error);
  EXPECT_THROW((void)parse(R"({"name": "n", )" + base + R"(, "axes": [)"
                           R"({"type": "sigma", "param": 0, "scale": [1]}]})"),
               Error);  // typo'd key
  EXPECT_THROW((void)parse(R"({"name": "n", )" + base + R"(, "axes": [)"
                           R"({"type": "corner", "param": 0}]})"),
               Error);  // unknown axis type
  EXPECT_THROW((void)parse(R"({"name": "n", )" + base + R"(, "axes": []})"),
               Error);  // no axes
  EXPECT_THROW((void)parse(
                   R"({"name": "n", "base": {"topology": "ring",)"
                   R"( "files": ["a", "b"]}, "axes": [)"
                   R"({"type": "sigma", "param": 0, "scales": [1]}]})"),
               Error);  // unknown topology

  // Annotations are legal everywhere.
  const campaign::CampaignSpec spec = parse(
      R"({"name": "n", "description": "doc", )" + base + R"(, "axes": [)"
      R"({"type": "sigma", "param": 0, "scales": [1.1], "notes": "x"}]})");
  EXPECT_EQ(campaign::expand(spec).size(), 1u);
}

TEST_F(SpecTest, OversizedGridsFailWithTheNamedErrorBeforeExpanding) {
  // 100^4 = 1e8 scenarios: the size check must fire — with its own
  // message, not a bad_alloc from trying to materialize the expansion.
  campaign::CampaignSpec spec;
  spec.name = "huge";
  spec.topology = "chain";
  spec.files = {"a", "b"};
  spec.axes.resize(4);
  for (size_t a = 0; a < spec.axes.size(); ++a)
    for (size_t v = 0; v < 100; ++v) {
      serve::ChangeSpec c;
      c.op = serve::ChangeSpec::Op::kSigma;
      c.param = a;
      c.scale = 1.0 + 1e-6 * static_cast<double>(v);
      const std::string axis = std::to_string(a);
      const std::string value = std::to_string(v);
      spec.axes[a].values.push_back({"p" + axis + "v" + value, c});
    }
  try {
    (void)campaign::expand(spec);
    FAIL() << "oversized grid accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("unreasonably large"),
              std::string::npos);
  }
}

// --- worker protocol --------------------------------------------------------

using WorkerTest = CampaignTest;

TEST_F(WorkerTest, SpeaksTheProtocolAndWritesShards) {
  const std::string spec = write_spec();
  const campaign::CampaignOptions o = opts("wout");

  // The worker and this test must agree on the expansion: re-derive the
  // fingerprint of scenario 0 (sigma 0.9 + swap a.bench) independently.
  const flow::Design base = make_chain("grid");
  (void)base.incremental().analyze();
  const uint64_t base_fp = incr::state_fingerprint(base.incremental());
  const std::vector<incr::Change> ch0{
      incr::SigmaScale{0, 0.9},
      incr::ReplaceModule{0, flow::load_variant_model(file("a.bench"), {})}};
  // Axis order in the spec: sigma first, swap second — but changes are
  // applied per axis in declaration order, so scenario 0's list is
  // [sigma0x0.9, swap u0=a.bench].
  const std::vector<incr::Change> expected_order{ch0[0], ch0[1]};
  const uint64_t fp0 = incr::scenario_fingerprint(base_fp, expected_order);

  std::istringstream in(
      "# comment lines are skipped\n"
      "\n"
      R"({"verb":"scenario","index":0,"fingerprint":")" +
      util::Fnv1a::hex(fp0) + R"("})" + "\n" +
      R"({"verb":"scenario","index":1,"fingerprint":"0000000000000000"})" +
      "\n" + R"({"verb":"shutdown"})" + "\n");
  std::ostringstream out;
  EXPECT_EQ(campaign::worker_loop(spec, o, in, out), 0);

  std::vector<std::string> lines;
  std::istringstream split(out.str());
  for (std::string l; std::getline(split, l);) lines.push_back(l);
  ASSERT_EQ(lines.size(), 4u) << out.str();

  const util::JsonValue ready = util::JsonReader::parse(lines[0]);
  EXPECT_TRUE(ready.at("ready").as_bool());
  EXPECT_EQ(ready.at("campaign").as_string(), "grid");
  EXPECT_EQ(ready.at("base_fingerprint").as_string(),
            util::Fnv1a::hex(base_fp));
  EXPECT_EQ(ready.at("scenarios").as_count("scenarios"), 6u);

  const util::JsonValue done = util::JsonReader::parse(lines[1]);
  EXPECT_TRUE(done.at("ok").as_bool()) << lines[1];
  EXPECT_EQ(done.at("index").as_count("index"), 0u);
  EXPECT_FALSE(done.at("failed").as_bool());
  EXPECT_TRUE(campaign::read_shard(campaign::shard_path(o.out_dir, fp0), fp0,
                                   base_fp)
                  .has_value());

  // A mismatched fingerprint is refused, not silently executed.
  const util::JsonValue bad = util::JsonReader::parse(lines[2]);
  EXPECT_FALSE(bad.at("ok").as_bool());
  EXPECT_NE(bad.at("error").as_string().find("fingerprint"),
            std::string::npos);

  const util::JsonValue bye = util::JsonReader::parse(lines[3]);
  EXPECT_TRUE(bye.at("stopping").as_bool());
}

// --- sharded execution + resume ---------------------------------------------

using RunTest = CampaignTest;

TEST_F(RunTest, InProcessRunStatusAndMerge) {
  const std::string spec = write_spec();

  campaign::RunStats s = campaign::run_campaign(spec, opts("out"));
  EXPECT_EQ(s.total, 6u);
  EXPECT_EQ(s.executed, 6u);
  EXPECT_EQ(s.skipped, 0u);
  EXPECT_EQ(s.failed, 0u);
  EXPECT_EQ(s.remaining, 0u);

  const campaign::StatusReport st = campaign::campaign_status(spec, opts("out"));
  EXPECT_EQ(st.name, "grid");
  EXPECT_EQ(st.done, 6u);
  EXPECT_EQ(st.failed, 0u);

  const std::string merged = campaign::merge_campaign(spec, opts("out"));
  EXPECT_EQ(slurp((dir_ / "out" / "campaign.json").string()), merged);
  const util::JsonValue doc = util::JsonReader::parse(merged);
  EXPECT_EQ(doc.at("campaign").as_string(), "grid");
  EXPECT_EQ(doc.at("scenarios").items().size(), 6u);
  EXPECT_EQ(doc.at("aggregate").at("ok").as_count("ok"), 6u);
  EXPECT_EQ(doc.at("worst").items().size(), 6u);
  // Worst ranking is q99-descending.
  const auto& worst = doc.at("worst").items();
  for (size_t i = 1; i < worst.size(); ++i)
    EXPECT_GE(worst[i - 1].at("q99").as_number(),
              worst[i].at("q99").as_number());

  // A re-run skips everything and re-merge is byte-stable.
  s = campaign::run_campaign(spec, opts("out"));
  EXPECT_EQ(s.skipped, 6u);
  EXPECT_EQ(s.executed, 0u);
  EXPECT_EQ(campaign::merge_campaign(spec, opts("out")), merged);
}

TEST_F(RunTest, ScenarioResultsMatchADirectScenarioRunnerSweep) {
  // The campaign's shard delays must be the ScenarioRunner's, bit for bit.
  const std::string spec = write_spec();
  (void)campaign::run_campaign(spec, opts("out"));
  const util::JsonValue doc =
      util::JsonReader::parse(campaign::merge_campaign(spec, opts("out")));

  const flow::Design base = make_chain("grid");
  (void)base.incremental().analyze();
  const incr::ScenarioRunner runner(base.incremental());
  std::vector<incr::Scenario> scenarios;
  for (const double scale : {0.9, 1.0, 1.1})
    for (const char* f : {"a.bench", "c.bench"})
      scenarios.push_back(
          {"", {incr::SigmaScale{0, scale},
                incr::ReplaceModule{0, flow::load_variant_model(file(f), {})}}});
  const std::vector<incr::ScenarioResult> rs = runner.run(scenarios);

  const auto& merged = doc.at("scenarios").items();
  ASSERT_EQ(merged.size(), rs.size());
  for (size_t i = 0; i < rs.size(); ++i) {
    ASSERT_TRUE(rs[i].ok());
    EXPECT_EQ(merged[i].at("delay").at("mean").as_number(),
              rs[i].delay.nominal());
    EXPECT_EQ(merged[i].at("delay").at("sigma").as_number(),
              rs[i].delay.sigma());
    EXPECT_EQ(merged[i].at("fingerprint").as_string(),
              util::Fnv1a::hex(rs[i].fingerprint));
  }
}

TEST_F(RunTest, LimitedRunsResumeWithoutReexecution) {
  const std::string spec = write_spec();

  campaign::RunStats s = campaign::run_campaign(spec, opts("out", 0, 2));
  EXPECT_EQ(s.executed, 2u);
  EXPECT_EQ(s.remaining, 4u);
  EXPECT_THROW((void)campaign::merge_campaign(spec, opts("out")), Error);

  s = campaign::run_campaign(spec, opts("out", 0, 3));
  EXPECT_EQ(s.skipped, 2u);  // the first run's work is not repeated
  EXPECT_EQ(s.executed, 3u);
  EXPECT_EQ(s.remaining, 1u);

  s = campaign::run_campaign(spec, opts("out"));
  EXPECT_EQ(s.skipped, 5u);
  EXPECT_EQ(s.executed, 1u);
  EXPECT_EQ(s.remaining, 0u);

  // Interrupted + resumed == one-shot, byte for byte.
  (void)campaign::run_campaign(spec, opts("ref"));
  EXPECT_EQ(campaign::merge_campaign(spec, opts("out")),
            campaign::merge_campaign(spec, opts("ref")));
}

TEST_F(RunTest, FailedScenariosPersistAndAreNeverRetried) {
  // Rewire axis mixing one valid route with one whose target port is out
  // of range: half the grid fails, and the failures are terminal work.
  write("fail.json", R"({
    "name": "failures",
    "base": {"topology": "chain", "files": ["a.bench", "b.bench"]},
    "axes": [
      {"type": "sigma", "param": 0, "scales": [0.9, 1.1]},
      {"type": "rewire", "conn": 1, "routes": [
        {"from_inst": 0, "from_port": 0, "to_inst": 1, "to_port": 1},
        {"from_inst": 0, "from_port": 0, "to_inst": 1, "to_port": 7}
      ]}
    ]
  })");
  const std::string spec = file("fail.json");

  campaign::RunStats s = campaign::run_campaign(spec, opts("out"));
  EXPECT_EQ(s.executed, 4u);
  EXPECT_EQ(s.failed, 2u);

  s = campaign::run_campaign(spec, opts("out"));
  EXPECT_EQ(s.skipped, 4u) << "error shards are completed work";
  EXPECT_EQ(s.executed, 0u);

  const util::JsonValue doc =
      util::JsonReader::parse(campaign::merge_campaign(spec, opts("out")));
  EXPECT_EQ(doc.at("aggregate").at("ok").as_count("ok"), 2u);
  EXPECT_EQ(doc.at("aggregate").at("failed").as_count("failed"), 2u);
  size_t errors = 0;
  for (const util::JsonValue& sc : doc.at("scenarios").items())
    if (!sc.at("ok").as_bool()) {
      ++errors;
      EXPECT_FALSE(sc.at("error").as_string().empty());
    }
  EXPECT_EQ(errors, 2u);
  EXPECT_EQ(doc.at("worst").items().size(), 2u) << "failed scenarios are "
                                                   "not ranked";
}

TEST_F(RunTest, StaleShardsFromAnotherBaseAreIgnored) {
  const std::string spec = write_spec();
  (void)campaign::run_campaign(spec, opts("out"));

  // Change the base design: every old shard now belongs to a different
  // base fingerprint and must be treated as "not run".
  write("a.bench", kModuleC);
  const campaign::StatusReport st = campaign::campaign_status(spec, opts("out"));
  EXPECT_EQ(st.done, 0u);
  const campaign::RunStats s = campaign::run_campaign(spec, opts("out"));
  EXPECT_EQ(s.skipped, 0u);
  EXPECT_EQ(s.executed, 6u);
}

// --- worker subprocesses ----------------------------------------------------

using SubprocessTest = CampaignTest;

TEST_F(SubprocessTest, WorkersMatchTheSerialReferenceByteForByte) {
  if (!fs::exists(campaign::default_worker_cmd()))
    GTEST_SKIP() << "hssta_cli not found next to the test binary";
  for (const std::string topology : {"chain", "star"}) {
    SCOPED_TRACE(topology);
    const std::string spec = write_spec(topology);

    const campaign::RunStats s =
        campaign::run_campaign(spec, opts("w_" + topology, 4));
    EXPECT_EQ(s.executed, 6u);
    EXPECT_EQ(s.remaining, 0u);

    (void)campaign::run_campaign(spec, opts("ref_" + topology, 0));
    EXPECT_EQ(campaign::merge_campaign(spec, opts("w_" + topology)),
              campaign::merge_campaign(spec, opts("ref_" + topology)));
  }
}

TEST_F(SubprocessTest, LimitedWorkerRunResumes) {
  if (!fs::exists(campaign::default_worker_cmd()))
    GTEST_SKIP() << "hssta_cli not found next to the test binary";
  const std::string spec = write_spec();

  campaign::RunStats s = campaign::run_campaign(spec, opts("w", 2, 2));
  EXPECT_EQ(s.executed, 2u);
  EXPECT_EQ(s.remaining, 4u);

  s = campaign::run_campaign(spec, opts("w", 2));
  EXPECT_EQ(s.skipped, 2u);
  EXPECT_EQ(s.executed, 4u);

  (void)campaign::run_campaign(spec, opts("ref", 0));
  EXPECT_EQ(campaign::merge_campaign(spec, opts("w")),
            campaign::merge_campaign(spec, opts("ref")));
}

TEST_F(SubprocessTest, MidCampaignWorkerDeathRedispatchesToIdleSurvivors) {
  if (!fs::exists(campaign::default_worker_cmd()))
    GTEST_SKIP() << "hssta_cli not found next to the test binary";
  const std::string spec = write_spec();

  // Exactly one of the two workers (whoever wins the lock-dir mkdir)
  // handshakes, accepts a scenario, then dies WITHOUT publishing its
  // shard — two seconds later, long after the survivor has drained the
  // queue and gone idle. The coordinator must hand the orphaned scenario
  // to the idle survivor instead of blocking in poll on workers that
  // will never write again (regression: tail-of-campaign worker death
  // used to deadlock the run).
  // The flaky branch runs a real worker with a private out dir and a
  // /dev/null stdin (so the child handshakes, writes no shard, and exits
  // on its own), forwards just the handshake line, lingers, then dies.
  const std::string cli = campaign::default_worker_cmd();
  write("flaky_worker.sh",
        "#!/bin/sh\n"
        "# argv: campaign-worker --spec <spec> --out <out> ...\n"
        "if mkdir \"" + file("flaky.lock") + "\" 2>/dev/null; then\n"
        "  d=$(mktemp -d)\n"
        "  \"" + cli + "\" campaign-worker --spec \"$3\" --out \"$d\" "
        "> \"$d/log\" &\n"
        "  while ! grep -q '\"ready\"' \"$d/log\" 2>/dev/null; do "
        "sleep 0.05; done\n"
        "  head -n 1 \"$d/log\"\n"
        "  sleep 2\n"
        "  rm -rf \"$d\"\n"
        "  exit 1\n"
        "fi\n"
        "sleep 0.5\n"  // let the flaky worker handshake + take a scenario first
        "exec \"" + cli + "\" \"$@\"\n");
  fs::permissions(dir_ / "flaky_worker.sh", fs::perms::owner_all);
  campaign::CampaignOptions o = opts("w", 2);
  o.worker_cmd = file("flaky_worker.sh");

  const campaign::RunStats s = campaign::run_campaign(spec, o);
  EXPECT_EQ(s.executed, 6u);
  EXPECT_EQ(s.remaining, 0u);
  EXPECT_EQ(s.redispatched, 1u);

  (void)campaign::run_campaign(spec, opts("ref", 0));
  EXPECT_EQ(campaign::merge_campaign(spec, opts("w")),
            campaign::merge_campaign(spec, opts("ref")));
}

TEST_F(SubprocessTest, DeadWorkersAreAFatalCampaignError) {
  const std::string spec = write_spec();
  campaign::CampaignOptions o = opts("w", 2);
  o.worker_cmd = "/bin/false";  // exits immediately: EOF before handshake
  EXPECT_THROW((void)campaign::run_campaign(spec, o), Error);
  // Nothing ran, so a later real run starts from zero.
  EXPECT_EQ(campaign::campaign_status(spec, opts("w")).done, 0u);
}

}  // namespace
}  // namespace hssta
