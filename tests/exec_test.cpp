// Tests for the exec:: execution layer and its contract with the compute
// APIs:
//  * parallel_for correctness (full coverage, round-robin dealing, worker
//    slots),
//  * exception propagation (the lowest failing index surfaces at every
//    thread count), nested-submit rejection on pools and inline nesting on
//    exec::serial(),
//  * concurrent callers of one shared pool and of the shared default,
//  * the thread-count cap (exec::kMaxThreads) on every surface,
//  * bit-exact serial vs multi-threaded results for the redesigned hot
//    paths (IO delays, criticality cm, extraction, MC quantiles),
//  * thread-safe shared flow::Module / sharded flow::Design handles.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "fixtures.hpp"
#include "hssta/core/criticality.hpp"
#include "hssta/core/io_delays.hpp"
#include "hssta/exec/executor.hpp"
#include "hssta/mc/flat_mc.hpp"
#include "hssta/mc/hier_mc.hpp"
#include "hssta/model/extract.hpp"
#include "hssta/serve/engine.hpp"
#include "hssta/util/error.hpp"
#include "oracles.hpp"

namespace hssta {
namespace {

using testing::ModuleUnderTest;

void expect_same_delays(const core::DelayMatrix& a,
                        const core::DelayMatrix& b) {
  ASSERT_EQ(a.num_inputs(), b.num_inputs());
  ASSERT_EQ(a.num_outputs(), b.num_outputs());
  for (size_t i = 0; i < a.num_inputs(); ++i)
    for (size_t j = 0; j < a.num_outputs(); ++j) {
      ASSERT_EQ(a.is_valid(i, j), b.is_valid(i, j));
      if (a.is_valid(i, j)) {
        EXPECT_TRUE(a.at(i, j) == b.at(i, j));
      }
    }
}

void expect_same_criticality(const core::CriticalityResult& a,
                             const core::CriticalityResult& b) {
  EXPECT_EQ(a.max_criticality, b.max_criticality);
  EXPECT_EQ(a.diagnostics.ops, b.diagnostics.ops);
  EXPECT_EQ(a.diagnostics.variance_clamped, b.diagnostics.variance_clamped);
  EXPECT_EQ(a.diagnostics.degenerate_theta, b.diagnostics.degenerate_theta);
  expect_same_delays(a.io_delays, b.io_delays);
}

// --- executor mechanics -----------------------------------------------------

TEST(Executor, ParallelForCoversEveryIndexExactlyOnce) {
  exec::ThreadPoolExecutor pool(4);
  for (size_t n : {size_t{0}, size_t{1}, size_t{3}, size_t{4}, size_t{1000}}) {
    std::vector<std::atomic<int>> hits(n);
    std::vector<size_t> slot_of(n, SIZE_MAX);
    pool.parallel_for(n, [&](size_t i, size_t slot) {
      ++hits[i];
      slot_of[i] = slot;
    });
    // Round-robin over the region's min(4, n) slots: index i on slot i mod T.
    const size_t slots = std::min<size_t>(4, n);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << i;
      EXPECT_EQ(slot_of[i], i % slots) << i;
    }
  }
}

TEST(Executor, SerialRunsInOrderOnOneWorkspace) {
  exec::SerialExecutor ex;
  EXPECT_EQ(ex.concurrency(), 1u);
  std::vector<size_t> order;
  ex.parallel_for(5, [&](size_t i, size_t slot) {
    order.push_back(i);
    EXPECT_EQ(slot, 0u);
  });
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(exec::serial().concurrency(), 1u);
  EXPECT_EQ(&exec::serial(), &exec::serial());
}

TEST(Executor, ExceptionPropagatesAndPoolSurvives) {
  exec::ThreadPoolExecutor pool(4);
  EXPECT_THROW(pool.parallel_for(100,
                                 [&](size_t i, size_t) {
                                   if (i == 57) throw Error("task failure");
                                 }),
               Error);
  // The pool is intact afterwards.
  std::atomic<int> count{0};
  pool.parallel_for(100, [&](size_t, size_t) { ++count; });
  EXPECT_EQ(count.load(), 100);

  exec::SerialExecutor serial;
  EXPECT_THROW(serial.parallel_for(3,
                                   [&](size_t i, size_t) {
                                     if (i == 1) throw Error("task failure");
                                   }),
               Error);
}

TEST(Executor, LowestFailingIndexSurfacesAtEveryThreadCount) {
  // Round-robin deals index 6 to a lower slot than index 3 at 2 threads
  // (slot 0 runs 0, 2, 4, 6; slot 1 runs 1, 3, 5, 7) and at 4 threads
  // (slot 2 runs 2, 6; slot 3 runs 3, 7), so "lowest slot wins" would
  // surface index 6's error. The serial loop throws index 3's, and so must
  // every pool.
  const auto task = [](size_t i, size_t) {
    if (i == 3) throw Error("task 3 failed");
    if (i == 6) throw Error("task 6 failed");
  };
  for (const size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    const std::shared_ptr<exec::Executor> ex = exec::make_executor(threads);
    for (int rep = 0; rep < 5; ++rep) {
      try {
        ex->parallel_for(8, task);
        ADD_FAILURE() << "parallel_for did not throw";
      } catch (const Error& e) {
        EXPECT_STREQ(e.what(), "task 3 failed");
      }
    }
    // A failure does not outlive its region: the next ones, inline (n = 1)
    // or fanned out, succeed.
    EXPECT_NO_THROW(ex->parallel_for(1, [](size_t, size_t) {}));
    EXPECT_NO_THROW(ex->parallel_for(8, [](size_t, size_t) {}));
  }
}

TEST(Executor, RejectsNestedSubmitOnSameExecutor) {
  exec::ThreadPoolExecutor pool(2);
  std::atomic<int> nested_rejections{0};
  pool.parallel_for(4, [&](size_t, size_t) {
    try {
      pool.parallel_for(1, [](size_t, size_t) {});
    } catch (const Error&) {
      ++nested_rejections;
    }
  });
  EXPECT_EQ(nested_rejections.load(), 4);

  // exec::serial() is a plain loop, so a nested region on it runs inline
  // and in order inside the outer task: the shared default nests anywhere.
  std::vector<std::pair<size_t, size_t>> trace;
  exec::serial().parallel_for(2, [&](size_t i, size_t slot) {
    EXPECT_EQ(slot, 0u);
    exec::serial().parallel_for(2, [&](size_t j, size_t inner_slot) {
      EXPECT_EQ(inner_slot, 0u);
      trace.emplace_back(i, j);
    });
  });
  const std::vector<std::pair<size_t, size_t>> in_order = {
      {0, 0}, {0, 1}, {1, 0}, {1, 1}};
  EXPECT_EQ(trace, in_order);

  // So does the default inside a pool task (the pattern used by
  // flow::Design instance sharding).
  pool.parallel_for(2, [&](size_t, size_t) {
    std::atomic<int> c{0};
    exec::serial().parallel_for(3, [&](size_t, size_t) { ++c; });
    EXPECT_EQ(c.load(), 3);
  });
}

TEST(Executor, SharedExecutorSerializesWorkspaceAlgorithms) {
  // Two threads drive per-slot-scratch algorithms through one shared pool.
  // Each call owns its scratch and the pool serializes top-level regions,
  // so every result must reproduce the serial reference exactly.
  const ModuleUnderTest m(testing::small_module_spec(41));
  const timing::TimingGraph& g = m.built.graph;
  const core::DelayMatrix ref = core::all_pairs_io_delays(g);
  const core::CriticalityResult crit_ref = core::compute_criticality(g);
  exec::ThreadPoolExecutor pool(4);
  std::vector<core::DelayMatrix> got(2);
  std::vector<core::CriticalityResult> crit(2);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < got.size(); ++t)
    threads.emplace_back([&, t] {
      for (int rep = 0; rep < 3; ++rep) {
        got[t] = core::all_pairs_io_delays(g, pool);
        crit[t] = core::compute_criticality(g, pool);
      }
    });
  for (std::thread& t : threads) t.join();
  for (size_t t = 0; t < got.size(); ++t) {
    SCOPED_TRACE("thread " + std::to_string(t));
    expect_same_delays(got[t], ref);
    expect_same_criticality(crit[t], crit_ref);
  }
}

TEST(Executor, DefaultSerialIsSharedAcrossThreads) {
  // Every algorithm defaults to the one process-wide exec::serial(); four
  // threads calling them at once must each get the single-thread bits.
  const ModuleUnderTest m(testing::small_module_spec(43));
  const timing::TimingGraph& g = m.built.graph;
  const model::BoundaryData boundary = model::compute_boundary(m.netlist);
  const auto extract = [&] {
    return model::extract_timing_model(m.built, m.variation, "m", boundary);
  };
  const core::CriticalityResult crit_ref = core::compute_criticality(g);
  const core::DelayMatrix io_ref = core::all_pairs_io_delays(g);
  const model::Extraction x_ref = extract();

  constexpr size_t kThreads = 4;
  std::vector<core::CriticalityResult> crit(kThreads);
  std::vector<core::DelayMatrix> io(kThreads);
  std::vector<std::optional<model::Extraction>> x(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      for (int rep = 0; rep < 3; ++rep) {
        crit[t] = core::compute_criticality(g);
        io[t] = core::all_pairs_io_delays(g);
        x[t] = extract();
      }
    });
  for (std::thread& t : threads) t.join();
  for (size_t t = 0; t < kThreads; ++t) {
    SCOPED_TRACE("thread " + std::to_string(t));
    expect_same_criticality(crit[t], crit_ref);
    expect_same_delays(io[t], io_ref);
    ASSERT_TRUE(x[t].has_value());
    EXPECT_EQ(x[t]->stats.criticalities, x_ref.stats.criticalities);
    EXPECT_EQ(x[t]->stats.model_edges, x_ref.stats.model_edges);
    std::ostringstream a, b;
    x[t]->model.save(a);
    x_ref.model.save(b);
    EXPECT_EQ(a.str(), b.str());
  }
}

TEST(Executor, ThreadCountsAboveTheCapAreRejected) {
  // Only kMaxThreads + 1 is requested: every surface must refuse it before
  // starting a thread.
  constexpr size_t kOver = exec::kMaxThreads + 1;
  const auto expect_named = [](const auto& call, const char* what) {
    try {
      call();
      ADD_FAILURE() << what << " accepted kMaxThreads + 1 threads";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("exec::kMaxThreads"),
                std::string::npos)
          << what << ": " << e.what();
    }
  };
  expect_named([] { (void)exec::effective_threads(kOver); },
               "effective_threads");
  expect_named([] { exec::ThreadPoolExecutor pool(kOver); },
               "ThreadPoolExecutor");
  expect_named([] { (void)exec::make_executor(kOver); }, "make_executor");
  expect_named(
      [] {
        serve::EngineOptions opts;
        opts.threads = kOver;
        serve::Engine engine(opts);
      },
      "serve::Engine");
  expect_named([] { (void)flow::Config::from_string("threads = 257\n"); },
               "Config threads key");
  try {
    (void)flow::Config::from_string("[exec]\nthreads = 257\n");
    ADD_FAILURE() << "[exec] threads = 257 accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("<string>:2"), std::string::npos)
        << e.what();
  }

  // The hardware default is clamped, the cap itself is accepted (no thread
  // starts here), and an over-cap HSSTA_THREADS falls back to serial.
  EXPECT_LE(exec::effective_threads(0), exec::kMaxThreads);
  EXPECT_EQ(exec::effective_threads(exec::kMaxThreads), exec::kMaxThreads);
  const char* env = std::getenv("HSSTA_THREADS");
  const std::optional<std::string> saved =
      env ? std::optional<std::string>(env) : std::nullopt;
  ASSERT_EQ(setenv("HSSTA_THREADS", std::to_string(kOver).c_str(), 1), 0);
  ::testing::internal::CaptureStderr();
  const size_t threads = flow::default_threads();
  (void)::testing::internal::GetCapturedStderr();
  if (saved)
    ASSERT_EQ(setenv("HSSTA_THREADS", saved->c_str(), 1), 0);
  else
    ASSERT_EQ(unsetenv("HSSTA_THREADS"), 0);
  EXPECT_EQ(threads, 1u);
}

TEST(Executor, FactoryMapsThreadRequests) {
  EXPECT_GE(exec::effective_threads(0), 1u);
  EXPECT_EQ(exec::effective_threads(3), 3u);
  EXPECT_EQ(exec::make_executor(1)->concurrency(), 1u);
  EXPECT_EQ(exec::make_executor(4)->concurrency(), 4u);
}

// --- bit-exact determinism across thread counts -----------------------------

class ParallelDeterminism : public ::testing::Test {
 protected:
  ParallelDeterminism() : m_(testing::small_module_spec(31)), pool_(4) {}
  ModuleUnderTest m_;
  exec::ThreadPoolExecutor pool_;
};

TEST_F(ParallelDeterminism, IoDelayMatrixBitExact) {
  timing::MaxDiagnostics serial_diag, pool_diag;
  const core::DelayMatrix a =
      core::all_pairs_io_delays(m_.built.graph, exec::serial(), &serial_diag);
  const core::DelayMatrix b =
      core::all_pairs_io_delays(m_.built.graph, pool_, &pool_diag);
  ASSERT_EQ(a.num_inputs(), b.num_inputs());
  ASSERT_EQ(a.num_outputs(), b.num_outputs());
  for (size_t i = 0; i < a.num_inputs(); ++i)
    for (size_t j = 0; j < a.num_outputs(); ++j) {
      ASSERT_EQ(a.is_valid(i, j), b.is_valid(i, j));
      if (a.is_valid(i, j)) {
        EXPECT_TRUE(a.at(i, j) == b.at(i, j));
      }
    }
  EXPECT_EQ(serial_diag.ops, pool_diag.ops);
  EXPECT_EQ(serial_diag.variance_clamped, pool_diag.variance_clamped);
  EXPECT_EQ(serial_diag.degenerate_theta, pool_diag.degenerate_theta);
}

TEST_F(ParallelDeterminism, CriticalityBitExact) {
  const core::CriticalityResult a =
      core::compute_criticality(m_.built.graph);
  const core::CriticalityResult b =
      core::compute_criticality(m_.built.graph, pool_);
  EXPECT_EQ(a.max_criticality, b.max_criticality);
  EXPECT_EQ(a.diagnostics.ops, b.diagnostics.ops);
  ASSERT_EQ(a.io_delays.num_inputs(), b.io_delays.num_inputs());
  for (size_t i = 0; i < a.io_delays.num_inputs(); ++i)
    for (size_t j = 0; j < a.io_delays.num_outputs(); ++j) {
      ASSERT_EQ(a.io_delays.is_valid(i, j), b.io_delays.is_valid(i, j));
      if (a.io_delays.is_valid(i, j)) {
        EXPECT_TRUE(a.io_delays.at(i, j) == b.io_delays.at(i, j));
      }
    }
}

TEST_F(ParallelDeterminism, ExtractionBitExact) {
  const model::Extraction a = model::extract_timing_model(
      m_.built, m_.variation, "m", model::compute_boundary(m_.netlist));
  const model::Extraction b = model::extract_timing_model(
      m_.built, m_.variation, "m", model::compute_boundary(m_.netlist),
      pool_);
  EXPECT_EQ(a.stats.model_edges, b.stats.model_edges);
  EXPECT_EQ(a.stats.model_vertices, b.stats.model_vertices);
  EXPECT_EQ(a.stats.edges_pruned, b.stats.edges_pruned);
  EXPECT_EQ(a.stats.criticalities, b.stats.criticalities);
  const core::DelayMatrix& da = a.model.io_delays();
  const core::DelayMatrix& db = b.model.io_delays();
  ASSERT_EQ(da.num_inputs(), db.num_inputs());
  for (size_t i = 0; i < da.num_inputs(); ++i)
    for (size_t j = 0; j < da.num_outputs(); ++j) {
      ASSERT_EQ(da.is_valid(i, j), db.is_valid(i, j));
      if (da.is_valid(i, j)) {
        EXPECT_TRUE(da.at(i, j) == db.at(i, j));
      }
    }
}

TEST_F(ParallelDeterminism, MonteCarloQuantilesBitExact) {
  const mc::FlatCircuit fc =
      mc::FlatCircuit::from_module(m_.built, m_.netlist, m_.variation);
  exec::SerialExecutor serial;
  const auto a = fc.sample_delay(701, 2009, serial);
  const auto b = fc.sample_delay(701, 2009, pool_);
  EXPECT_EQ(a.sorted(), b.sorted());
  EXPECT_EQ(a.quantile(0.99), b.quantile(0.99));
  // The Rng& overload called with Rng(seed) is the same stream.
  stats::Rng rng(2009);
  const auto c = fc.sample_delay(701, rng);
  EXPECT_EQ(a.sorted(), c.sorted());

  const auto ca = mc::sample_canonical_delay(m_.built.graph, 353, 7, serial);
  const auto cb = mc::sample_canonical_delay(m_.built.graph, 353, 7, pool_);
  EXPECT_EQ(ca.sorted(), cb.sorted());
}

TEST_F(ParallelDeterminism, HierMcBitExact) {
  const hier::HierDesign design = testing::make_quad_design(m_);
  const mc::FlatCircuit fc =
      mc::flatten_design(design, hier::build_design_grid(design));
  exec::SerialExecutor serial;
  const auto a = fc.sample_delay(301, 11, serial);
  const auto b = fc.sample_delay(301, 11, pool_);
  EXPECT_EQ(a.sorted(), b.sorted());
}

// --- thread-safe flow handles ------------------------------------------------

TEST(FlowThreads, SharedModuleHandleIsThreadSafe) {
  const flow::Module m =
      flow::Module::from_random_dag(testing::small_module_spec(61));
  constexpr size_t kThreads = 8;
  std::vector<const core::SstaResult*> ssta(kThreads, nullptr);
  std::vector<const model::Extraction*> extraction(kThreads, nullptr);
  std::vector<const stats::EmpiricalDistribution*> mc(kThreads, nullptr);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      const flow::Module handle = m;  // copies share state and caches
      ssta[t] = &handle.ssta();
      extraction[t] = &handle.extract_model();
      mc[t] = &handle.monte_carlo(flow::McOptions{200, 5});
      (void)handle.slack(1.0);
      (void)handle.critical_paths(3);
    });
  for (std::thread& t : threads) t.join();
  // Once-per-stage: every thread observed the same cached objects.
  for (size_t t = 1; t < kThreads; ++t) {
    EXPECT_EQ(ssta[t], ssta[0]);
    EXPECT_EQ(extraction[t], extraction[0]);
    EXPECT_EQ(mc[t], mc[0]);
  }
}

TEST(FlowThreads, ShardedDesignMatchesSerialBitForBit) {
  flow::Config serial_cfg;
  serial_cfg.threads = 1;
  flow::Config pool_cfg;
  pool_cfg.threads = 4;

  auto build = [](const flow::Config& cfg) {
    // Two distinct module objects (not shared handles) so instance sharding
    // has two genuine extraction tasks; the same spec keeps the grid pitch
    // shared as the design grid requires.
    flow::Module a =
        flow::Module::from_random_dag(testing::small_module_spec(91), cfg);
    flow::Module b =
        flow::Module::from_random_dag(testing::small_module_spec(91), cfg);
    flow::Design d("pair", cfg);
    const size_t ia = d.add_instance(a, 0, 0, "a");
    const size_t ib = d.add_instance(b, a.model().die().width, 0, "b");
    const size_t ni = d.num_inputs(ia);
    const size_t no = d.num_outputs(ia);
    for (size_t k = 0; k < ni; ++k) d.connect(ia, k % no, ib, k);
    d.expose_unconnected_ports();
    return d;
  };
  const flow::Design serial_design = build(serial_cfg);
  const flow::Design pool_design = build(pool_cfg);

  EXPECT_EQ(serial_design.analyze().delay().nominal(),
            pool_design.analyze().delay().nominal());
  EXPECT_EQ(serial_design.analyze().delay().sigma(),
            pool_design.analyze().delay().sigma());
  EXPECT_EQ(serial_design.monte_carlo(flow::McOptions{301, 11}).sorted(),
            pool_design.monte_carlo(flow::McOptions{301, 11}).sorted());
}

TEST(FlowThreads, ConfigParsesThreadsKey) {
  EXPECT_EQ(flow::Config::from_string("threads = 4\n").threads, 4u);
  EXPECT_EQ(flow::Config::from_string("[exec]\nthreads = 0\n").threads, 0u);
  EXPECT_THROW((void)flow::Config::from_string("threads = -2\n"), Error);
}

TEST(FlowThreads, ConfigRejectsLevelParallelKey) {
  // Every sweep has one schedule, so no config key selects one:
  // level_parallel is an unknown key in every spelling.
  for (const char* text : {"level_parallel = on\n", "level_parallel = auto\n",
                           "[exec]\nlevel_parallel = off\n"}) {
    try {
      (void)flow::Config::from_string(text);
      ADD_FAILURE() << "accepted: " << text;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("config: unknown key"),
                std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace hssta
