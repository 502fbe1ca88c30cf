// Shared machinery of the perfbench workloads: run options, the seeded
// input generator, the span tracer, percentile helpers, the result record
// every workload fills, and the inputs two workloads share.
//
// The benchmark drives hssta only through its public headers and times
// the calls into each layer from outside.

#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "hssta/flow/config.hpp"
#include "hssta/model/timing_model.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Command-line options plus the load shape derived from the host.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;   ///< span dump written at the end of a traced run
  std::string repo_root;   ///< checkout root (for testdata/)
  std::string worker_cmd;  ///< hssta_cli binary for campaign workers
  size_t nproc = 1;
  size_t threads = 1;  ///< T = min(2, nproc) executor threads
  size_t clients = 1;  ///< C = min(4, nproc) serve clients
  size_t workers = 1;  ///< W = min(2, nproc) campaign worker processes
};

/// SplitMix64. Every generated input derives from the workload seed
/// through this generator, so the library sees only the generated files
/// and requests, never the seed.
class Rng {
 public:
  explicit Rng(uint64_t seed) : s_(seed) {}
  uint64_t next() {
    uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }
  size_t below(size_t n) { return static_cast<size_t>(next() % n); }
  /// A scale rounded to 3 decimals, so request lines and specs print it
  /// exactly.
  double scale(double lo, double hi) {
    return static_cast<double>(static_cast<int64_t>(uniform(lo, hi) * 1000.0 +
                                                    0.5)) /
           1000.0;
  }

 private:
  uint64_t s_;
};

/// One recorded span: a layer call timed from outside the library.
struct Span {
  std::string name;
  double start = 0.0;  ///< seconds since the tracer started
  double end = 0.0;
  int64_t parent = -1;   ///< index of the enclosing span on the same thread
  uint64_t request = 0;  ///< groups the spans of one request / module
};

/// In-memory span recorder. Disabled tracers record nothing (the untraced
/// runs that produce the end-to-end metrics never read the clock here).
/// Spans nest per thread; self time is a span minus its direct children.
class Tracer {
 public:
  explicit Tracer(bool enabled);

  class Scope {
   public:
    Scope(Tracer* tracer, std::string name, uint64_t request);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    size_t index_ = 0;
    int64_t saved_parent_ = -1;
  };

  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] Scope span(std::string name, uint64_t request = 0) {
    return Scope(enabled_ ? this : nullptr, std::move(name), request);
  }

  /// Sum of durations of the spans called `name` of one request.
  [[nodiscard]] double total(std::string_view name, uint64_t request) const;
  /// Sum of self times of the spans called `name`.
  [[nodiscard]] double self(std::string_view name) const;

  /// Write every span as JSON (name, start, end, parent, request, self).
  void write(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point t0_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// `iters` steps of a dependent integer multiply-add chain: fixed work of
/// the benchmark's own, which no change to the library can speed up.
uint64_t spin(uint64_t iters);

/// The host's speed, from the same fixed kernel timed at quiet points
/// spread over a run. On a shared virtual machine the load of other guests
/// moves every timing by up to 40% within minutes. The kernel slows with
/// it, so the end-to-end figures are reported at the reference speed:
/// a time t measured while a kernel round took k ms counts as
/// t * kReferenceRoundMs / k.
class HostSpeed {
 public:
  /// kRoundIters iterations take this long on the quiet 4-vCPU host the
  /// benchmark was tuned on. Only ratios between runs on one host matter.
  static constexpr double kReferenceRoundMs = 3.0;
  static constexpr uint64_t kRoundIters = uint64_t{1} << 21;

  /// Time a few kernel rounds now. Call where the workload is idle.
  void sample();
  /// Median round of every sample so far, in ms.
  [[nodiscard]] double round_ms() const;
  /// The factor that takes a time measured in this run to the reference
  /// speed (a rate is divided by it).
  [[nodiscard]] double time_scale() const {
    return kReferenceRoundMs / round_ms();
  }

 private:
  std::vector<double> rounds_ms_;
};

/// Linear-interpolated percentile (q in [0, 1]); +inf entries (failed
/// requests) sort last, so failures count as missing every latency limit.
[[nodiscard]] double percentile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return percentile(std::move(v), 0.5);
}

/// What a workload measured and checked.
class Result {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  /// Count `n` attempted operations.
  void attempt(size_t n = 1) { attempted_ += n; }
  /// Count one failed operation (already attempted) and say why.
  void fail(const std::string& why);
  /// An output gate: one attempted check, failed when `ok` is false.
  void gate(bool ok, const std::string& what);

  [[nodiscard]] size_t attempted() const { return attempted_; }
  [[nodiscard]] size_t failed() const { return failed_; }
  [[nodiscard]] const std::vector<std::string>& failures() const {
    return failures_;
  }
  [[nodiscard]] const std::map<std::string, std::pair<double, std::string>>&
  metrics() const {
    return metrics_;
  }

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
  size_t attempted_ = 0;
  size_t failed_ = 0;
  std::vector<std::string> failures_;
};

/// Run `setup` `repeats` times (each run replaces the previous fixture),
/// record the median wall time as setup_s and keep the last fixture.
template <class Fixture>
Fixture repeated_setup(Result& res, int repeats,
                       const std::function<Fixture()>& setup) {
  std::vector<double> times;
  Fixture fx{};
  for (int k = 0; k < repeats; ++k) {
    fx = Fixture{};  // tear the previous fixture down outside the timing
    const Clock::time_point t0 = Clock::now();
    fx = setup();
    times.push_back(seconds_since(t0));
  }
  res.set("setup_s", median(times), "s");
  return fx;
}

/// Read a whole file (binary).
[[nodiscard]] std::string read_file(const std::string& path);
/// Write a whole file (binary); throws on failure.
void write_file(const std::string& path, const std::string& bytes);
/// printf-style %.17g, so doubles round-trip through text exactly.
[[nodiscard]] std::string num(double v);

/// Every workload's analysis configuration: `threads` executor threads and
/// no model cache, so each pass does the whole work.
[[nodiscard]] hssta::flow::Config bench_config(size_t threads);

/// The .hstm files of the 4 x c6288 chain that eco_serve and campaign
/// analyze: the base model and two drop-in variants.
inline constexpr const char* kChainModelFiles[] = {"base.hstm", "v1.hstm",
                                                   "v2.hstm"};

/// Extract the repository's synthetic c6288 and write kChainModelFiles:
/// the model, then two variants with every edge delay scaled by a seeded
/// factor in [0.90, 0.97] and [1.03, 1.10]. The variants keep ports, die,
/// grids and boundary, so a swap never changes the geometry. Returns the
/// base model.
hssta::model::TimingModel write_chain_models(Rng& rng,
                                             const hssta::flow::Config& cfg);

/// Workload entry points (one translation unit each). Each samples `host`
/// between its units of work.
void run_characterize(const Options& o, Tracer& tr, Result& res,
                      HostSpeed& host);
void run_signoff(const Options& o, Tracer& tr, Result& res, HostSpeed& host);
void run_eco_serve(const Options& o, Tracer& tr, Result& res, HostSpeed& host);
void run_campaign(const Options& o, Tracer& tr, Result& res, HostSpeed& host);

}  // namespace perfbench
