#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "hssta/flow/module.hpp"
#include "hssta/netlist/iscas.hpp"

namespace perfbench {

namespace {

/// Index of the innermost open span on this thread (-1 = none).
thread_local int64_t t_current = -1;

}  // namespace

Tracer::Tracer(bool enabled) : enabled_(enabled), t0_(Clock::now()) {}

Tracer::Scope::Scope(Tracer* tracer, std::string name, uint64_t request)
    : tracer_(tracer) {
  if (!tracer_) return;
  Span s;
  s.name = std::move(name);
  s.parent = t_current;
  s.request = request;
  std::lock_guard<std::mutex> lock(tracer_->mu_);
  s.start = seconds_since(tracer_->t0_);
  index_ = tracer_->spans_.size();
  tracer_->spans_.push_back(std::move(s));
  saved_parent_ = t_current;
  t_current = static_cast<int64_t>(index_);
}

Tracer::Scope::~Scope() {
  if (!tracer_) return;
  std::lock_guard<std::mutex> lock(tracer_->mu_);
  tracer_->spans_[index_].end = seconds_since(tracer_->t0_);
  t_current = saved_parent_;
}

double Tracer::total(std::string_view name, uint64_t request) const {
  std::lock_guard<std::mutex> lock(mu_);
  double t = 0.0;
  for (const Span& s : spans_)
    if (s.name == name && s.request == request) t += s.end - s.start;
  return t;
}

double Tracer::self(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  double t = 0.0;
  for (const Span& s : spans_)
    if (s.name == name) t += s.end - s.start;
  for (const Span& s : spans_)
    if (s.parent >= 0 && spans_[static_cast<size_t>(s.parent)].name == name)
      t -= s.end - s.start;
  return t;
}

void Tracer::write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& s : spans_)
    if (s.parent >= 0) child[static_cast<size_t>(s.parent)] += s.end - s.start;
  std::ostringstream os;
  os << "{\"spans\":[\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i ? ",\n" : "") << "{\"name\":\"" << s.name
       << "\",\"start\":" << num(s.start) << ",\"end\":" << num(s.end)
       << ",\"parent\":" << s.parent << ",\"request\":" << s.request
       << ",\"self\":" << num(s.end - s.start - child[i]) << "}";
  }
  os << "\n]}\n";
  write_file(path, os.str());
}

uint64_t spin(uint64_t iters) {
  uint64_t x = iters;
  for (uint64_t i = 0; i < iters; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    asm volatile("" : "+r"(x));
  }
  return x;
}

void HostSpeed::sample() {
  for (int k = 0; k < 5; ++k) {
    const Clock::time_point t0 = Clock::now();
    const uint64_t x = spin(kRoundIters);
    rounds_ms_.push_back(1e3 * seconds_since(t0));
    asm volatile("" : : "r"(x));
  }
}

double HostSpeed::round_ms() const { return median(rounds_ms_); }

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  if (std::isinf(v[hi])) return v[hi];
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

void Result::set(const std::string& name, double value,
                 const std::string& unit) {
  metrics_[name] = {value, unit};
}

void Result::fail(const std::string& why) {
  ++failed_;
  if (failures_.size() < 20) failures_.push_back(why);
}

void Result::gate(bool ok, const std::string& what) {
  attempt();
  if (!ok) fail("gate failed: " + what);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);
  out << bytes;
  out.close();
  if (!out) throw std::runtime_error("cannot write " + path);
}

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

hssta::flow::Config bench_config(size_t threads) {
  hssta::flow::Config cfg;
  cfg.threads = threads;
  cfg.cache.enabled = false;
  return cfg;
}

hssta::model::TimingModel write_chain_models(Rng& rng,
                                             const hssta::flow::Config& cfg) {
  using hssta::model::TimingModel;
  const hssta::flow::Module m = hssta::flow::Module::from_netlist(
      hssta::netlist::make_iscas85("c6288", *hssta::flow::default_library()),
      cfg);
  const TimingModel& base = m.model();
  base.save_file(kChainModelFiles[0]);
  const double factors[] = {rng.scale(0.90, 0.97), rng.scale(1.03, 1.10)};
  for (size_t v = 0; v < 2; ++v) {
    hssta::timing::TimingGraph g = base.graph();
    for (hssta::timing::EdgeId e = 0; e < g.num_edge_slots(); ++e)
      if (g.edge_alive(e)) g.edge(e).delay.scale(factors[v]);
    TimingModel(base.name() + "_v" + std::to_string(v + 1), std::move(g),
                base.variation(), base.boundary())
        .save_file(kChainModelFiles[v + 1]);
  }
  return base;
}

}  // namespace perfbench
