// Tests for the persistent .hstm model cache: fingerprint stability and
// key composition, ModelCache storage semantics (atomic publish, header
// verification, eviction of corrupt entries), the flow::Module wiring
// (hit/miss/bypass, byte-identity of cached models) and concurrent use of
// one cache directory.

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "hssta/cache/model_cache.hpp"
#include "hssta/flow/flow.hpp"
#include "hssta/incr/design_state.hpp"
#include "hssta/netlist/bench_io.hpp"
#include "hssta/util/error.hpp"
#include "hssta/util/hash.hpp"

namespace hssta {
namespace {

namespace fs = std::filesystem;

/// Fresh cache directory per test, removed on teardown.
class CacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::temp_directory_path() /
           ("hssta_cache_" + std::string(info->test_suite_name()) + "_" +
            info->name() + "_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  [[nodiscard]] std::string dir() const { return dir_.string(); }

  /// A small but non-trivial module netlist.
  static const char* bench_text() {
    return "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(x)\nOUTPUT(y)\n"
           "g1 = NAND(a, b)\ng2 = NOR(b, c)\ng3 = XOR(g1, g2)\n"
           "x = AND(g3, a)\ny = OR(g3, c)\n";
  }

  [[nodiscard]] flow::Config cached_config() const {
    flow::Config cfg;
    cfg.cache.dir = dir();
    cfg.cache.enabled = true;
    return cfg;
  }

  static std::string model_bytes(const flow::Module& m) {
    std::ostringstream os;
    m.model().save(os);
    return os.str();
  }

  [[nodiscard]] std::vector<fs::path> entries() const {
    std::vector<fs::path> out;
    for (const auto& e : fs::directory_iterator(dir_)) out.push_back(e.path());
    return out;
  }

  fs::path dir_;
};

TEST(Fingerprint, HashPrimitivesAreCanonical) {
  // Known FNV-1a vectors (byte stream "a", "foobar").
  EXPECT_EQ(util::Fnv1a().bytes("a", 1).value(), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(util::Fnv1a().bytes("foobar", 6).value(), 0x85944171f73967e8ull);
  // Length-prefixed strings: ("ab","c") != ("a","bc").
  EXPECT_NE(util::Fnv1a().str("ab").str("c").value(),
            util::Fnv1a().str("a").str("bc").value());
  // Doubles hash their bit pattern: -0.0 != 0.0, but equal values collide.
  EXPECT_NE(util::Fnv1a().f64(0.0).value(), util::Fnv1a().f64(-0.0).value());
  EXPECT_EQ(util::Fnv1a().f64(0.05).value(), util::Fnv1a().f64(0.05).value());
  EXPECT_EQ(util::Fnv1a::hex(0xdeadbeefull), "00000000deadbeef");
}

TEST(Fingerprint, NetlistKeyTracksStructureAndName) {
  const flow::Module a = flow::Module::from_bench_string(
      "INPUT(a)\nOUTPUT(x)\nx = NOT(a)\n");
  const flow::Module b = flow::Module::from_bench_string(
      "INPUT(a)\nOUTPUT(x)\nx = NOT(a)\n");
  const flow::Module c = flow::Module::from_bench_string(
      "INPUT(a)\nOUTPUT(x)\nx = BUFF(a)\n");
  EXPECT_EQ(netlist::fingerprint(a.netlist()),
            netlist::fingerprint(b.netlist()));
  EXPECT_NE(netlist::fingerprint(a.netlist()),
            netlist::fingerprint(c.netlist()));
}

TEST(Fingerprint, ConfigKeyCoversModelInputsOnly) {
  const flow::Config base;
  const uint64_t fp = flow::extraction_fingerprint(base);
  EXPECT_EQ(fp, flow::extraction_fingerprint(flow::Config{}));

  flow::Config changed;
  changed.correlation.rho_neighbor = 0.5;
  EXPECT_NE(fp, flow::extraction_fingerprint(changed));
  changed = flow::Config{};
  changed.max_cells_per_grid = 50;
  EXPECT_NE(fp, flow::extraction_fingerprint(changed));
  changed = flow::Config{};
  changed.place.utilization = 0.5;
  EXPECT_NE(fp, flow::extraction_fingerprint(changed));

  // Speed knobs and downstream options do not participate.
  flow::Config speed;
  speed.threads = 7;
  speed.cache.dir = "/tmp/somewhere";
  speed.mc.samples = 17;
  speed.hier.interconnect_delay = 0.3;
  speed.extract.criticality_threshold = 0.2;  // hashed separately
  EXPECT_EQ(fp, flow::extraction_fingerprint(speed));
}

TEST(Fingerprint, ExtractOptionsKeyIgnoresSchedule) {
  // The thread count is not an extraction option, so the key covers only
  // the result-affecting fields.
  model::ExtractOptions a;
  model::ExtractOptions b;
  EXPECT_EQ(model::fingerprint(a), model::fingerprint(b));
  b.criticality_threshold = 0.1;
  EXPECT_NE(model::fingerprint(a), model::fingerprint(b));
  model::ExtractOptions c;
  c.repair_connectivity = false;
  EXPECT_NE(model::fingerprint(a), model::fingerprint(c));
}

TEST(Fingerprint, LibraryKeyTracksCellParameters) {
  const uint64_t fp = library::fingerprint(library::default_90nm());
  EXPECT_EQ(fp, library::fingerprint(library::default_90nm()));
  library::CellLibrary tweaked = library::default_90nm();
  library::CellType extra;
  extra.name = "SLOWBUF";
  extra.intrinsic = {0.5};
  tweaked.add(std::move(extra));
  EXPECT_NE(fp, library::fingerprint(tweaked));
}

TEST(Fingerprint, ModelTextIsTheSavedBytesSharedByCopies) {
  const auto streamed = [](const model::TimingModel& m) {
    std::ostringstream os;
    m.save(os);
    return os.str();
  };
  const flow::Module comb = flow::Module::from_bench_string(
      "INPUT(a)\nINPUT(b)\nOUTPUT(x)\nOUTPUT(y)\n"
      "g = NAND(a, b)\nx = AND(g, a)\ny = OR(g, b)\n");
  const flow::Module seq =
      flow::Module::from_file(std::string(HSSTA_TESTDATA_DIR) + "/s27.bench");
  for (const flow::Module* module : {&comb, &seq}) {
    const model::TimingModel& m = module->model();
    SCOPED_TRACE(m.name());
    const std::string text = streamed(m);
    const uint64_t fp = util::Fnv1a().str(text).value();
    EXPECT_EQ(text.substr(0, 7), m.is_sequential() ? "hstm 2\n" : "hstm 1\n");
    EXPECT_EQ(incr::model_fingerprint(m), fp);
    EXPECT_EQ(m.saved_text(), text);

    // Copies (constructed or assigned) share the one text object.
    const model::TimingModel copy = m;
    model::TimingModel assigned = comb.model();
    assigned = m;
    EXPECT_EQ(&copy.saved_text(), &m.saved_text());
    EXPECT_EQ(&assigned.saved_text(), &m.saved_text());
    EXPECT_EQ(incr::model_fingerprint(copy), fp);

    // A mutated copy gets its own text; the original keeps its own.
    model::TimingModel sequential = m;
    std::vector<model::ModelRegister> registers = m.registers();
    registers.push_back({"extra", m.input_names()[0], m.output_names()[0],
                         "", 0});
    sequential.set_sequential(std::move(registers), m.constraints());
    EXPECT_NE(incr::model_fingerprint(sequential), fp);
    EXPECT_EQ(sequential.saved_text(), streamed(sequential));

    model::TimingModel edited = m;
    timing::TimingGraph& g = edited.graph();
    timing::EdgeId e = 0;
    while (!g.edge_alive(e)) ++e;
    g.edge(e).delay.set_nominal(g.edge(e).delay.nominal() + 1.0);
    EXPECT_NE(incr::model_fingerprint(edited), fp);
    EXPECT_EQ(edited.saved_text(), streamed(edited));

    EXPECT_EQ(incr::model_fingerprint(m), fp);
    EXPECT_EQ(&copy.saved_text(), &m.saved_text());
    EXPECT_EQ(m.saved_text(), text);

    // A moved-from model is usable again once assigned to.
    model::TimingModel moved = copy;
    const model::TimingModel target = std::move(moved);
    EXPECT_EQ(&target.saved_text(), &m.saved_text());
    EXPECT_THROW((void)moved.saved_text(), Error);
    moved = m;
    EXPECT_EQ(&moved.saved_text(), &m.saved_text());

    // Concurrent first calls on a fresh model compute one text.
    std::istringstream is(text);
    const model::TimingModel fresh = model::TimingModel::load(is);
    constexpr size_t kThreads = 8;
    std::vector<uint64_t> fps(kThreads);
    std::vector<const std::string*> texts(kThreads);
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t)
      threads.emplace_back([&fresh, &fps, &texts, t] {
        fps[t] = incr::model_fingerprint(fresh);
        texts[t] = &fresh.saved_text();
      });
    for (std::thread& t : threads) t.join();
    for (size_t t = 0; t < kThreads; ++t) {
      EXPECT_EQ(fps[t], fp);
      EXPECT_EQ(texts[t], texts[0]);
    }
    EXPECT_EQ(*texts[0], text);
  }
}

TEST_F(CacheTest, ModelCacheStoreLoadRoundTrip) {
  const flow::Module m = flow::Module::from_bench_string(bench_text());
  cache::ModelCache cache(dir());
  const uint64_t key = 0x1234abcdull;

  EXPECT_FALSE(cache.load(key).has_value());
  EXPECT_EQ(cache.stats().misses, 1u);

  cache.store(key, m.model());
  EXPECT_EQ(cache.stats().stores, 1u);
  EXPECT_TRUE(fs::exists(cache.entry_path(key)));

  const auto loaded = cache.load(key);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(cache.stats().hits, 1u);
  std::ostringstream a, b;
  m.model().save(a);
  loaded->save(b);
  EXPECT_EQ(a.str(), b.str());

  // No temp files left behind.
  for (const fs::path& p : entries())
    EXPECT_EQ(p.extension(), ".hstm") << p;
}

TEST_F(CacheTest, OpenSweepsStaleTempFilesOnly) {
  // A crashed writer leaves ".tmp-*" files behind; opening the cache must
  // sweep old ones but never race a live writer's fresh temp file.
  const fs::path stale = dir_ / ".tmp-deadbeef-1-0";
  const fs::path fresh = dir_ / ".tmp-cafef00d-2-0";
  const fs::path entry = dir_ / "0123456789abcdef.hstm";
  std::ofstream(stale) << "partial";
  std::ofstream(fresh) << "partial";
  std::ofstream(entry) << "# not even valid, sweep must not touch entries";
  fs::last_write_time(stale,
                      fs::file_time_type::clock::now() - std::chrono::hours(2));

  cache::ModelCache cache(dir());
  EXPECT_FALSE(fs::exists(stale));
  EXPECT_TRUE(fs::exists(fresh));
  EXPECT_TRUE(fs::exists(entry));
}

TEST_F(CacheTest, ModelCacheRejectsWrongFingerprintHeader) {
  const flow::Module m = flow::Module::from_bench_string(bench_text());
  cache::ModelCache cache(dir());
  cache.store(1, m.model());
  // Simulate a renamed / cross-copied entry: content says key 1, name says 2.
  fs::rename(cache.entry_path(1), cache.entry_path(2));
  EXPECT_FALSE(cache.load(2).has_value());
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_FALSE(fs::exists(cache.entry_path(2)));  // evicted, not trusted
}

TEST_F(CacheTest, HitIsByteIdenticalToFreshExtraction) {
  const std::string uncached =
      model_bytes(flow::Module::from_bench_string(bench_text()));

  const flow::Module cold =
      flow::Module::from_bench_string(bench_text(), cached_config());
  const std::string cold_bytes = model_bytes(cold);
  EXPECT_EQ(cold.cache_stats().misses, 1u);
  EXPECT_EQ(cold.cache_stats().stores, 1u);
  EXPECT_EQ(cold.cache_stats().hits, 0u);

  const flow::Module warm =
      flow::Module::from_bench_string(bench_text(), cached_config());
  const std::string warm_bytes = model_bytes(warm);
  EXPECT_EQ(warm.cache_stats().hits, 1u);
  EXPECT_EQ(warm.cache_stats().misses, 0u);
  EXPECT_TRUE(warm.extract_model().stats.from_cache);
  EXPECT_FALSE(cold.extract_model().stats.from_cache);

  EXPECT_EQ(cold_bytes, uncached);
  EXPECT_EQ(warm_bytes, uncached);
}

TEST_F(CacheTest, ConfigChangeChangesKey) {
  const flow::Module a =
      flow::Module::from_bench_string(bench_text(), cached_config());
  (void)a.model();
  ASSERT_EQ(entries().size(), 1u);

  // A different extraction threshold is a different key: miss, new entry.
  flow::Config cfg = cached_config();
  cfg.extract.criticality_threshold = 0.2;
  const flow::Module b = flow::Module::from_bench_string(bench_text(), cfg);
  (void)b.model();
  EXPECT_EQ(b.cache_stats().hits, 0u);
  EXPECT_EQ(b.cache_stats().misses, 1u);
  EXPECT_EQ(entries().size(), 2u);

  // A different correlation profile too (config fingerprint).
  flow::Config cfg2 = cached_config();
  cfg2.correlation.rho_neighbor = 0.5;
  const flow::Module c = flow::Module::from_bench_string(bench_text(), cfg2);
  (void)c.model();
  EXPECT_EQ(c.cache_stats().misses, 1u);
  EXPECT_EQ(entries().size(), 3u);
}

TEST_F(CacheTest, SpeedKnobsShareOneEntry) {
  flow::Config cfg = cached_config();
  cfg.threads = 2;
  const flow::Module a = flow::Module::from_bench_string(bench_text(), cfg);
  const std::string bytes_a = model_bytes(a);

  flow::Config cfg2 = cached_config();
  cfg2.threads = 1;
  const flow::Module b = flow::Module::from_bench_string(bench_text(), cfg2);
  EXPECT_EQ(model_bytes(b), bytes_a);
  EXPECT_EQ(b.cache_stats().hits, 1u);
  EXPECT_EQ(entries().size(), 1u);
}

TEST_F(CacheTest, CorruptEntryIsEvictedAndReextracted) {
  const flow::Module cold =
      flow::Module::from_bench_string(bench_text(), cached_config());
  const std::string good_bytes = model_bytes(cold);
  ASSERT_EQ(entries().size(), 1u);
  const fs::path entry = entries()[0];

  // Truncate the entry mid-body (a partial write the atomic rename would
  // normally prevent, or bit rot).
  std::string content;
  {
    std::ifstream is(entry);
    std::ostringstream ss;
    ss << is.rdbuf();
    content = ss.str();
  }
  {
    std::ofstream os(entry, std::ios::trunc);
    os << content.substr(0, content.size() / 2);
  }

  const flow::Module again =
      flow::Module::from_bench_string(bench_text(), cached_config());
  EXPECT_EQ(model_bytes(again), good_bytes);
  EXPECT_EQ(again.cache_stats().hits, 0u);
  EXPECT_EQ(again.cache_stats().misses, 1u);
  EXPECT_EQ(again.cache_stats().evictions, 1u);
  EXPECT_EQ(again.cache_stats().stores, 1u);  // re-populated

  // Trailing garbage (e.g. two concatenated entries) is also rejected.
  {
    std::ofstream os(entry, std::ios::trunc);
    os << content << "zombie\n";
  }
  const flow::Module third =
      flow::Module::from_bench_string(bench_text(), cached_config());
  EXPECT_EQ(model_bytes(third), good_bytes);
  EXPECT_EQ(third.cache_stats().evictions, 1u);
}

TEST_F(CacheTest, DisabledCacheBypassesEverything) {
  flow::Config cfg = cached_config();
  cfg.cache.enabled = false;
  const flow::Module m = flow::Module::from_bench_string(bench_text(), cfg);
  (void)m.model();
  EXPECT_EQ(m.cache_stats(), cache::CacheStats{});
  EXPECT_TRUE(entries().empty());

  // Empty dir means inactive too, however `enabled` is set.
  flow::Config cfg2;
  cfg2.cache.dir.clear();
  cfg2.cache.enabled = true;
  EXPECT_FALSE(cfg2.cache.active());
}

TEST_F(CacheTest, ConcurrentModulesShareOneDirectory) {
  // Two handles over the same netlist and cache dir extract concurrently:
  // the atomic publish keeps every outcome (both miss, or one hits the
  // other's store) byte-identical and the directory uncorrupted.
  const std::string reference =
      model_bytes(flow::Module::from_bench_string(bench_text()));
  const flow::Module a =
      flow::Module::from_bench_string(bench_text(), cached_config());
  const flow::Module b =
      flow::Module::from_bench_string(bench_text(), cached_config());
  std::string bytes_a, bytes_b;
  std::thread ta([&] { bytes_a = model_bytes(a); });
  std::thread tb([&] { bytes_b = model_bytes(b); });
  ta.join();
  tb.join();
  EXPECT_EQ(bytes_a, reference);
  EXPECT_EQ(bytes_b, reference);

  const cache::CacheStats total = [&] {
    cache::CacheStats t = a.cache_stats();
    t += b.cache_stats();
    return t;
  }();
  EXPECT_EQ(total.hits + total.misses, 2u);
  EXPECT_GE(total.stores, 1u);
  ASSERT_EQ(entries().size(), 1u);

  // The published entry is valid: a third module hits it.
  const flow::Module c =
      flow::Module::from_bench_string(bench_text(), cached_config());
  EXPECT_EQ(model_bytes(c), reference);
  EXPECT_EQ(c.cache_stats().hits, 1u);
}

TEST_F(CacheTest, DesignAggregatesPerModuleStats) {
  // Two structurally identical modules under different names (identical
  // placement, so the design grid pitches match) are distinct cache keys.
  const flow::Config cfg = cached_config();
  auto make = [&](const char* name) {
    netlist::Netlist nl =
        netlist::read_bench_string(bench_text(), *flow::default_library());
    nl.set_name(name);
    return flow::Module::from_netlist(std::move(nl), cfg);
  };
  auto build = [&](const flow::Module& a, const flow::Module& b) {
    flow::Design d("duo", cfg);
    d.add_instance(a, 0, 0, "a");
    d.add_instance(a, 40, 0, "a2");  // shared handle: counted once
    d.add_instance(b, 80, 0, "b");
    d.expose_unconnected_ports();
    return d;
  };

  const flow::Design d = build(make("m_left"), make("m_right"));
  (void)d.analyze();
  const cache::CacheStats cs = d.cache_stats();
  EXPECT_EQ(cs.misses, 2u);  // two distinct modules, both cold
  EXPECT_EQ(cs.stores, 2u);
  EXPECT_EQ(cs.hits, 0u);

  // A second design over fresh handles is all hits, and analyzes to the
  // exact same stitched distribution.
  const flow::Design d2 = build(make("m_left"), make("m_right"));
  (void)d2.analyze();
  EXPECT_EQ(d2.cache_stats().hits, 2u);
  EXPECT_EQ(d2.cache_stats().misses, 0u);
  EXPECT_EQ(d2.delay().nominal(), d.delay().nominal());
  EXPECT_EQ(d2.delay().sigma(), d.delay().sigma());
}

TEST_F(CacheTest, ConfigKeysParse) {
  const flow::Config cfg = flow::Config::from_string(
      "[cache]\ndir = " + dir() + "\nenabled = true\n");
  EXPECT_EQ(cfg.cache.dir, dir());
  EXPECT_TRUE(cfg.cache.enabled);
  EXPECT_TRUE(cfg.cache.active());

  const flow::Config off =
      flow::Config::from_string("cache.enabled = off\n");
  EXPECT_FALSE(off.cache.enabled);
  EXPECT_THROW((void)flow::Config::from_string("cache.enabled = maybe\n"),
               Error);
}

TEST(CacheConfig, BlankCacheDirEnvWarnsOnceAndStaysOff) {
  ASSERT_EQ(setenv("HSSTA_CACHE_DIR", "   ", 1), 0);
  ::testing::internal::CaptureStderr();
  const std::string dir = flow::default_cache_dir();
  const std::string err = ::testing::internal::GetCapturedStderr();
  ASSERT_EQ(unsetenv("HSSTA_CACHE_DIR"), 0);
  EXPECT_TRUE(dir.empty());
  EXPECT_NE(err.find("HSSTA_CACHE_DIR"), std::string::npos) << err;
  // Once per process: a second call stays quiet.
  ASSERT_EQ(setenv("HSSTA_CACHE_DIR", "", 1), 0);
  ::testing::internal::CaptureStderr();
  (void)flow::default_cache_dir();
  EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
  ASSERT_EQ(unsetenv("HSSTA_CACHE_DIR"), 0);
}

TEST(CacheConfig, CacheDirEnvBecomesDefault) {
  ASSERT_EQ(setenv("HSSTA_CACHE_DIR", "/tmp/hssta-env-cache", 1), 0);
  EXPECT_EQ(flow::default_cache_dir(), "/tmp/hssta-env-cache");
  const flow::Config cfg;
  EXPECT_EQ(cfg.cache.dir, "/tmp/hssta-env-cache");
  EXPECT_TRUE(cfg.cache.active());
  ASSERT_EQ(unsetenv("HSSTA_CACHE_DIR"), 0);
}

TEST(CacheConfig, MalformedThreadsEnvWarnsAndRunsSerial) {
  ASSERT_EQ(setenv("HSSTA_THREADS", "2x", 1), 0);
  ::testing::internal::CaptureStderr();
  const size_t threads = flow::default_threads();
  const std::string err = ::testing::internal::GetCapturedStderr();
  ASSERT_EQ(unsetenv("HSSTA_THREADS"), 0);
  EXPECT_EQ(threads, 1u);
  EXPECT_NE(err.find("HSSTA_THREADS"), std::string::npos) << err;
  EXPECT_NE(err.find("2x"), std::string::npos) << err;
}

TEST(ModelCacheErrors, UncreatableDirectoryFailsLoudly) {
  EXPECT_THROW(cache::ModelCache(""), Error);
  EXPECT_THROW(cache::ModelCache("/proc/hssta-definitely-not-writable"),
               Error);
}

}  // namespace
}  // namespace hssta
