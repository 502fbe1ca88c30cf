// Micro-benchmarks (google-benchmark) for the primitive operations whose
// throughput bounds every analysis in the library: canonical sum and Clark
// max at several coefficient dimensions, full-graph propagation, the
// all-pairs criticality engine, PCA, and Monte Carlo sampling — plus the
// executor-based thread sweeps (1/2/4/8 threads) for the three hot paths
// the exec layer parallelizes. Run with
//   --benchmark_out=bench_out/BENCH_micro_ops.json --benchmark_out_format=json
// to land the speedup trajectory in a BENCH_*.json artifact.

#include <benchmark/benchmark.h>

#include "common.hpp"
#include "hssta/core/criticality.hpp"
#include "hssta/core/io_delays.hpp"
#include "hssta/core/ssta.hpp"
#include "hssta/exec/executor.hpp"
#include "hssta/linalg/pca.hpp"
#include "hssta/mc/flat_mc.hpp"
#include "hssta/stats/rng.hpp"
#include "hssta/timing/propagate.hpp"
#include "hssta/timing/statops.hpp"
#include "hssta/variation/space.hpp"

namespace {

using namespace hssta;

timing::CanonicalForm random_form(size_t dim, stats::Rng& rng) {
  timing::CanonicalForm f(dim);
  f.set_nominal(rng.uniform(0.5, 2.0));
  for (size_t k = 0; k < dim; ++k) f.corr()[k] = 0.05 * rng.normal();
  f.set_random(rng.uniform(0.01, 0.1));
  return f;
}

void BM_CanonicalSum(benchmark::State& state) {
  stats::Rng rng(1);
  const size_t dim = static_cast<size_t>(state.range(0));
  timing::CanonicalForm a = random_form(dim, rng);
  const timing::CanonicalForm b = random_form(dim, rng);
  for (auto _ : state) {
    timing::CanonicalForm c = a;
    c += b;
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_CanonicalSum)->Arg(16)->Arg(64)->Arg(256);

void BM_ClarkMax(benchmark::State& state) {
  stats::Rng rng(2);
  const size_t dim = static_cast<size_t>(state.range(0));
  const timing::CanonicalForm a = random_form(dim, rng);
  const timing::CanonicalForm b = random_form(dim, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(timing::statistical_max(a, b));
  }
}
BENCHMARK(BM_ClarkMax)->Arg(16)->Arg(64)->Arg(256);

// The allocation-free kernels the sweeps actually run on: bank rows in,
// bank row out. The delta against BM_ClarkMax / BM_CanonicalSum is the
// per-op allocation cost the flat engine removed.
void BM_ClarkMaxInto(benchmark::State& state) {
  stats::Rng rng(2);
  const size_t dim = static_cast<size_t>(state.range(0));
  timing::FormBank bank;
  bank.reset(3, dim);
  bank.store(0, random_form(dim, rng));
  bank.store(1, random_form(dim, rng));
  for (auto _ : state) {
    timing::statistical_max_into(bank.row(2), bank.row(0), bank.row(1));
    benchmark::DoNotOptimize(bank.data());
  }
}
BENCHMARK(BM_ClarkMaxInto)->Arg(16)->Arg(64)->Arg(256);

void BM_AddInto(benchmark::State& state) {
  stats::Rng rng(1);
  const size_t dim = static_cast<size_t>(state.range(0));
  timing::FormBank bank;
  bank.reset(3, dim);
  bank.store(0, random_form(dim, rng));
  bank.store(1, random_form(dim, rng));
  for (auto _ : state) {
    timing::add_into(bank.row(2), bank.row(0), bank.row(1));
    benchmark::DoNotOptimize(bank.data());
  }
}
BENCHMARK(BM_AddInto)->Arg(16)->Arg(64)->Arg(256);

void BM_TightnessProbability(benchmark::State& state) {
  stats::Rng rng(3);
  const timing::CanonicalForm a = random_form(128, rng);
  const timing::CanonicalForm b = random_form(128, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(timing::tightness_probability(a, b));
  }
}
BENCHMARK(BM_TightnessProbability);

void BM_FullCircuitSsta(benchmark::State& state) {
  const flow::Module module = bench::module_for_iscas("c880");
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::run_ssta(module.graph()));
  }
}
BENCHMARK(BM_FullCircuitSsta)->Unit(benchmark::kMillisecond);

void BM_AllPairsCriticality(benchmark::State& state) {
  const flow::Module module = bench::module_for_iscas("c432");
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::compute_criticality(module.graph()));
  }
}
BENCHMARK(BM_AllPairsCriticality)->Unit(benchmark::kMillisecond);

void BM_Pca(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const variation::GridPartition part(placement::Die{100, 100},
                                      n, n);
  const variation::SpatialCorrelationModel model(
      variation::SpatialCorrelationConfig{}, 0.42, 0.53);
  const linalg::Matrix corr = model.correlation_matrix(part.geometry());
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::pca(corr, {}, 1e-2));
  }
}
BENCHMARK(BM_Pca)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

void BM_FlatMcSample(benchmark::State& state) {
  const flow::Module module = bench::module_for_iscas("c880");
  const mc::FlatCircuit& fc = module.flat_circuit();
  stats::Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fc.sample_delay(10, rng));
  }
}
BENCHMARK(BM_FlatMcSample)->Unit(benchmark::kMillisecond);

// --- executor thread sweeps (Arg = thread count) ---------------------------
// Wall-clock (UseRealTime) at 1/2/4/8 threads; the acceptance target is
// >= 2x for all_pairs_io_delays on a c7552-class module at 4 threads.

const flow::Module& c7552_module() {
  static const flow::Module m = bench::module_for_iscas("c7552");
  return m;
}

void BM_AllPairsIoDelaysThreads(benchmark::State& state) {
  const flow::Module& module = c7552_module();
  const auto ex = exec::make_executor(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::all_pairs_io_delays(module.graph(), *ex));
  }
}
BENCHMARK(BM_AllPairsIoDelaysThreads)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_CriticalityThreads(benchmark::State& state) {
  const flow::Module module = bench::module_for_iscas("c1908");
  const auto ex = exec::make_executor(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::compute_criticality(module.graph(), *ex));
  }
}
BENCHMARK(BM_CriticalityThreads)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_FlatMcThreads(benchmark::State& state) {
  const flow::Module module = bench::module_for_iscas("c880");
  const mc::FlatCircuit& fc = module.flat_circuit();
  const auto ex = exec::make_executor(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(fc.sample_delay(256, 7, *ex));
  }
}
BENCHMARK(BM_FlatMcThreads)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
