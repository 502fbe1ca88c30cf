// campaign — batch what-if over a 4 x c6288 chain. A seeded
// sigma x sigma x swap grid runs through W `hssta_cli campaign-worker`
// processes to a merged report; a second campaign stops at half (limit)
// and is resumed to its merged report.
//
// Gates: no scenario fails, every run executes exactly its share, and the
// merged report is byte-identical across the W-worker run, the resumed
// run and the in-process (workers = 0) reference.

#include <filesystem>

#include "harness.hpp"
#include "hssta/campaign/campaign.hpp"

namespace perfbench {

namespace {

using namespace hssta;
namespace fs = std::filesystem;

constexpr size_t kInstances = 4;
const char* const kSpec = "spec.json";

struct Fixture {
  size_t scenarios = 0;
};

/// `n` distinct seeded scales, one per step of [lo, lo + n * step).
std::string scales(Rng& rng, size_t n, double lo, double step) {
  std::string s;
  for (size_t i = 0; i < n; ++i)
    s += (i ? "," : "") +
         num(lo + static_cast<double>(i) * step + rng.scale(0.0, 0.8 * step));
  return s;
}

Fixture setup(uint64_t seed, const Options& o) {
  Rng rng(seed);
  (void)write_chain_models(rng, bench_config(o.threads));

  auto quoted = [](const char* f) { return "\"" + std::string(f) + "\""; };
  const std::string base = quoted(kChainModelFiles[0]);
  std::string spec = R"({"name":"perfbench","base":{"topology":"chain","files":[)";
  for (size_t i = 0; i < kInstances; ++i) spec += (i ? "," : "") + base;
  spec += R"(]},"axes":[{"type":"sigma","param":0,"scales":[)" +
          scales(rng, 4, 0.80, 0.12) +
          R"(]},{"type":"sigma","param":1,"scales":[)" +
          scales(rng, 3, 0.85, 0.15) +
          R"(]},{"type":"swap","inst":)" +
          std::to_string(rng.below(kInstances)) + R"(,"files":[)" + base +
          "," + quoted(kChainModelFiles[1]) + "," +
          quoted(kChainModelFiles[2]) + "]}]}";
  write_file(kSpec, spec + "\n");
  return Fixture{4 * 3 * 3};
}

campaign::CampaignOptions options(const Options& o, const std::string& out,
                                  size_t workers, size_t limit) {
  campaign::CampaignOptions c;
  c.out_dir = out;
  c.workers = workers;
  c.limit = limit;
  c.worker_cmd = o.worker_cmd;
  c.config = bench_config(1);
  return c;
}

struct Iteration {
  double run_s = 0.0, merge_s = 0.0, resume_s = 0.0, noop_s = 0.0;
  size_t redispatched = 0;
};

/// One full W-worker campaign and one half-then-resumed campaign, each to
/// its merged report; every run is checked against its expected share.
Iteration iterate(const Options& o, const Fixture& fx, size_t k, Tracer& tr,
                  Result& res, std::vector<std::string>& reports) {
  const size_t total = fx.scenarios, half = total / 2;
  Iteration it;
  auto run = [&](const campaign::CampaignOptions& c, size_t executed,
                 size_t skipped, const char* span) {
    const Tracer::Scope s = tr.span(span, k);
    const campaign::RunStats st = campaign::run_campaign(kSpec, c);
    res.attempt(st.executed);
    for (size_t f = 0; f < st.failed; ++f) res.fail("failed scenario");
    res.gate(st.total == total && st.executed == executed &&
                 st.skipped == skipped && st.remaining == total - executed - skipped,
             std::string(span) + " executes its share");
    it.redispatched += st.redispatched;
  };
  auto merge = [&](const campaign::CampaignOptions& c) {
    const Tracer::Scope s = tr.span("campaign.merge", k);
    reports.push_back(campaign::merge_campaign(kSpec, c));
  };

  const std::string full = "full-" + std::to_string(k);
  const campaign::CampaignOptions fopts = options(o, full, o.workers, 0);
  Clock::time_point t0 = Clock::now();
  run(fopts, total, 0, "campaign.run");
  it.run_s = seconds_since(t0);
  t0 = Clock::now();
  merge(fopts);
  it.merge_s = seconds_since(t0);
  if (tr.enabled()) {
    t0 = Clock::now();
    run(fopts, 0, total, "campaign.noop_resume");
    it.noop_s = seconds_since(t0);
  }

  const std::string part = "half-" + std::to_string(k);
  run(options(o, part, o.workers, half), half, 0, "campaign.half");
  const campaign::CampaignOptions ropts = options(o, part, o.workers, 0);
  t0 = Clock::now();
  run(ropts, total - half, half, "campaign.resume");
  merge(ropts);
  it.resume_s = seconds_since(t0);

  fs::remove_all(full);
  fs::remove_all(part);
  return it;
}

}  // namespace

void run_campaign(const Options& o, Tracer& tr, Result& res, HostSpeed& host) {
  const Fixture fx =
      repeated_setup<Fixture>(res, 9, [&] { return setup(o.seed, o); });
  const double total = static_cast<double>(fx.scenarios);

  std::vector<std::string> reports;
  std::vector<Iteration> its;
  Tracer off(false);
  const Clock::time_point start = Clock::now();
  const double budget = o.trace ? 0.0 : o.seconds;
  while (its.size() < 2 || seconds_since(start) < budget) {
    host.sample();
    its.push_back(iterate(o, fx, its.size(), off, res, reports));
  }

  std::vector<double> rate, resume;
  for (const Iteration& it : its) {
    rate.push_back(total / (it.run_s + it.merge_s));
    resume.push_back(it.resume_s);
  }
  res.set("latency_p50_ms", 1e3 * median(resume), "ms");
  res.set("latency_p90_ms", 1e3 * percentile(resume, 0.9), "ms");
  res.set("throughput_per_s", median(rate), "1/s");
  res.set("scenarios_per_s", median(rate), "1/s");
  res.set("resume_s", median(resume), "s");
  res.set("campaigns", static_cast<double>(its.size()), "count");

  // The in-process serial reference (workers = 0).
  const campaign::CampaignOptions ref = options(o, "inprocess", 0, 0);
  Clock::time_point t0 = Clock::now();
  {
    const Tracer::Scope s = tr.span("campaign.inprocess");
    const campaign::RunStats st = campaign::run_campaign(kSpec, ref);
    res.attempt(st.executed);
    for (size_t f = 0; f < st.failed; ++f) res.fail("failed scenario");
  }
  const double inprocess_s = seconds_since(t0);
  const std::string reference = campaign::merge_campaign(kSpec, ref);
  for (const std::string& r : reports)
    res.gate(r == reference,
             "merged report equals the in-process reference byte for byte");
  if (!o.trace) return;

  t0 = Clock::now();
  {
    const Tracer::Scope s = tr.span("campaign.prepare");
    (void)campaign::campaign_status(kSpec, options(o, "status", 0, 0));
  }
  const double prepare_s = seconds_since(t0);
  const Iteration traced = iterate(o, fx, its.size(), tr, res, reports);
  res.gate(reports.back() == reference, "traced merged report equals reference");

  const double untraced_s = its.back().run_s + its.back().merge_s;
  res.set("trace.overhead_pct.campaign",
          100.0 * (traced.run_s + traced.merge_s - untraced_s) / untraced_s,
          "%");
  res.set("campaign.prepare_s", prepare_s, "s");
  res.set("campaign.inprocess_s", inprocess_s, "s");
  res.set("campaign.run_s", traced.run_s, "s");
  res.set("campaign.merge_s", traced.merge_s, "s");
  res.set("campaign.noop_resume_s", traced.noop_s, "s");
  size_t redispatched = traced.redispatched;
  for (const Iteration& it : its) redispatched += it.redispatched;
  res.set("campaign.redispatched", static_cast<double>(redispatched), "count");
}

}  // namespace perfbench
