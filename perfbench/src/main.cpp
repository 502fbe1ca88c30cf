// perfbench — the repository benchmark. One run executes one workload
// (characterize, signoff, eco_serve, campaign) for a fixed number of
// seconds on inputs generated from --seed, checks the outputs, and prints
// a human-readable report followed by one machine-readable line:
//
//   {"perfbench":{"workload":..,"correct":..,"attempted":..,"failed":..,
//                 "host":{..},"metrics":{"name":{"value":..,"unit":..}}}}
//
// perfbench/run.py builds this binary from the checkout and maps that
// line onto the metric lists of BENCHMARK.json. --trace 1 runs the same
// inputs layer by layer under the span tracer and reports per-layer
// metrics instead of end-to-end ones.

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "harness.hpp"
#include "hssta/util/version.hpp"

namespace {

using namespace perfbench;

size_t affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<size_t>(n);
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

uint64_t g_sink = 0;

/// Wall time of `n` threads each spinning `iters` rounds.
double spin_parallel(size_t n, uint64_t iters) {
  std::vector<uint64_t> out(n);
  const Clock::time_point t0 = Clock::now();
  {
    std::vector<std::thread> ts;
    for (size_t k = 0; k < n; ++k)
      ts.emplace_back([&out, k, iters] { out[k] = spin(iters); });
    for (std::thread& t : ts) t.join();
  }
  const double t = seconds_since(t0);
  for (const uint64_t v : out) g_sink += v;
  return t;
}

/// Calibrated spin probe: the throughput of `n` concurrent spinners
/// relative to one, i.e. how many cores the host actually grants. On a
/// virtual machine idle vCPUs can take about a second of sustained load
/// before they run in parallel, so the probe keeps spinning until the
/// median of its last five rounds reaches 0.9 n or 3 s have passed. That
/// also leaves every core awake for the workload that follows.
double effective_cores(size_t n) {
  uint64_t iters = 1u << 16;
  for (;;) {
    const Clock::time_point t0 = Clock::now();
    g_sink += spin(iters);
    if (seconds_since(t0) > 0.01 || iters > (1ull << 34)) break;
    iters *= 2;
  }
  const double cores = static_cast<double>(n);
  const Clock::time_point start = Clock::now();
  std::vector<double> ratios;
  for (;;) {
    const Clock::time_point t0 = Clock::now();
    g_sink += spin(iters);
    const double t1 = seconds_since(t0);
    ratios.push_back(cores * t1 / spin_parallel(n, iters));
    if (ratios.size() < 5) continue;
    const double m = median({ratios.end() - 5, ratios.end()});
    if (m >= 0.9 * cores || seconds_since(start) > 3.0)
      return std::min(cores, m);
  }
}

/// From the aggregate CPU line of /proc/stat, in clock ticks: the time
/// the hypervisor stole, and that plus the time the guest ran (user, nice,
/// system, irq, softirq). Zeros where it cannot be read.
std::pair<double, double> steal_and_wanted_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double v[8] = {};
  if (!(in >> cpu) || cpu != "cpu") return {0.0, 0.0};
  for (double& x : v)
    if (!(in >> x)) return {0.0, 0.0};
  return {v[7], v[0] + v[1] + v[2] + v[5] + v[6] + v[7]};
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload characterize|signoff|eco_serve|campaign"
               " --seed N --seconds S --trace 0|1 --repo-root DIR"
               " --worker-cmd HSSTA_CLI [--trace-out FILE]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") o.workload = v;
    else if (k == "--seed") o.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") o.seconds = std::strtod(v.c_str(), nullptr);
    else if (k == "--trace") o.trace = v == "1";
    else if (k == "--trace-out") o.trace_out = v;
    else if (k == "--repo-root") o.repo_root = v;
    else if (k == "--worker-cmd") o.worker_cmd = v;
    else return usage(argv[0]);
  }
  if (argc % 2 == 0 || o.workload.empty() || o.repo_root.empty() ||
      o.seconds <= 0.0)
    return usage(argv[0]);

  o.nproc = affinity_cpus();
  o.threads = std::min<size_t>(2, o.nproc);
  o.clients = std::min<size_t>(4, o.nproc);
  o.workers = std::min<size_t>(2, o.nproc);
  const double eff = effective_cores(o.nproc);

  Tracer tr(o.trace);
  Result res;
  HostSpeed host;
  bool crashed = false;
  const auto [steal0, wanted0] = steal_and_wanted_ticks();
  host.sample();
  try {
    if (o.workload == "characterize") run_characterize(o, tr, res, host);
    else if (o.workload == "signoff") run_signoff(o, tr, res, host);
    else if (o.workload == "eco_serve") run_eco_serve(o, tr, res, host);
    else if (o.workload == "campaign") run_campaign(o, tr, res, host);
    else return usage(argv[0]);
  } catch (const std::exception& e) {
    res.attempt();
    res.fail(std::string("aborted: ") + e.what());
    crashed = true;
  }
  host.sample();
  const auto [steal1, wanted1] = steal_and_wanted_ticks();
  // The end-to-end figures at the reference host speed; the measured ones
  // stay in the report as raw.<name>.
  const double scale = host.time_scale();
  for (const char* name :
       {"setup_s", "latency_p50_ms", "latency_p90_ms", "throughput_per_s"}) {
    const auto it = res.metrics().find(name);
    if (it == res.metrics().end()) continue;
    const auto [value, unit] = it->second;
    res.set(std::string("raw.") + name, value, unit);
    res.set(name, unit == "1/s" ? value / scale : value * scale, unit);
  }
  // The share of the CPU time the guest wanted while the workload ran that
  // the hypervisor gave to other guests: host noise every figure carries.
  const double steal_pct =
      wanted1 > wanted0 ? 100.0 * (steal1 - steal0) / (wanted1 - wanted0)
                        : 0.0;
  if (o.trace && !o.trace_out.empty() && !crashed) tr.write(o.trace_out);
  // A median of no samples (a run too short for every request kind) or a
  // percentile that lands on failed requests (+inf) is not a figure to
  // compare, and JSON has no spelling for it: the run fails.
  for (const auto& [name, m] : res.metrics())
    if (!std::isfinite(m.first)) {
      res.attempt();
      res.fail("metric " + name + " has no finite value");
    }

  const bool correct = res.failed() == 0;
  std::printf("\n== perfbench %s seed %llu (%s) ==\n", o.workload.c_str(),
              static_cast<unsigned long long>(o.seed),
              o.trace ? "traced" : "untraced");
  std::printf("host: nproc %zu, effective cores %.2f, steal %.1f%%, kernel "
              "round %.3f ms (time scale %.4f), threads %zu, clients %zu, "
              "workers %zu, %s\n",
              o.nproc, eff, steal_pct, host.round_ms(), scale, o.threads,
              o.clients, o.workers, hssta::build_info().c_str());
  for (const auto& [name, m] : res.metrics())
    std::printf("  %-34s %16.6g %s\n", name.c_str(), m.first,
                m.second.c_str());
  std::printf("attempted %zu, failed %zu, failed_frac %.6g\n", res.attempted(),
              res.failed(),
              res.attempted() ? static_cast<double>(res.failed()) /
                                    static_cast<double>(res.attempted())
                              : 1.0);
  for (const std::string& f : res.failures())
    std::printf("FAILURE: %s\n", f.c_str());

  std::string line = "{\"perfbench\":{\"workload\":\"" + o.workload +
                     "\",\"seed\":" + std::to_string(o.seed) +
                     ",\"trace\":" + (o.trace ? "true" : "false") +
                     ",\"correct\":" + (correct ? "true" : "false") +
                     ",\"attempted\":" + std::to_string(res.attempted()) +
                     ",\"failed\":" + std::to_string(res.failed()) +
                     ",\"host\":{\"nproc\":" + std::to_string(o.nproc) +
                     ",\"effective_cores\":" + num(eff) +
                     ",\"steal_pct\":" + num(steal_pct) +
                     ",\"kernel_round_ms\":" + num(host.round_ms()) +
                     ",\"time_scale\":" + num(scale) +
                     ",\"threads\":" + std::to_string(o.threads) +
                     ",\"clients\":" + std::to_string(o.clients) +
                     ",\"workers\":" + std::to_string(o.workers) +
                     ",\"build_type\":\"" PERFBENCH_BUILD_TYPE "\"}" +
                     ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, m] : res.metrics()) {
    line += (first ? "\"" : ",\"") + name + "\":{\"value\":" +
            (std::isfinite(m.first) ? num(m.first) : "null") +
            ",\"unit\":\"" + m.second + "\"}";
    first = false;
  }
  line += "}}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
