// Designer flow: timing yield versus clock period, and the cost of
// corner-based sign-off. SSTA's delay distribution turns "does it meet
// timing?" into "what fraction of dies meets this period?" — the
// delay-yield information the paper's introduction motivates.

#include <cstdio>
#include <iostream>

#include "hssta/flow/flow.hpp"
#include "hssta/timing/sta.hpp"
#include "hssta/util/strings.hpp"
#include "hssta/util/table.hpp"

int main() {
  using namespace hssta;
  const flow::Module m = flow::Module::from_iscas("c1908", flow::Config());

  const timing::CanonicalForm& delay = m.delay();
  const double nominal = timing::corner_delay(m.graph(), 0.0);
  const double corner3 = timing::corner_delay(m.graph(), 3.0);

  std::printf("circuit %s: nominal STA %.4f ns, 3-sigma corner %.4f ns\n",
              m.name().c_str(), nominal, corner3);
  std::printf("SSTA: mean %.4f ns, sigma %.4f ns\n\n", delay.nominal(),
              delay.sigma());

  // Yield table across candidate clock periods.
  Table t({"period (ns)", "timing yield", "comment"});
  const double targets[] = {delay.quantile(0.05),
                            delay.nominal(),
                            delay.quantile(0.90),
                            delay.quantile(0.99),
                            delay.quantile(0.9999),
                            corner3};
  const char* comments[] = {"aggressive", "mean delay", "90% target",
                            "99% target", "high-yield target",
                            "3-sigma corner period"};
  for (size_t k = 0; k < std::size(targets); ++k)
    t.add_row({fmt_double(targets[k], 5),
               fmt_percent(m.ssta().timing_yield(targets[k]), 2),
               comments[k]});
  t.print(std::cout);

  // What corner sign-off costs: the frequency left on the table.
  const double p999 = delay.quantile(0.999);
  std::printf(
      "\nsigning off at the 3-sigma corner wastes %.1f%% frequency against\n"
      "a 99.9%%-yield statistical sign-off (%.4f ns vs %.4f ns): corners\n"
      "stack every edge at +3 sigma, ignoring path averaging and spatial\n"
      "correlation.\n",
      100.0 * (corner3 - p999) / p999, corner3, p999);

  // Statistical slack at the 99.9% period: the most critical pins.
  const core::SlackResult& slack = m.slack(p999);
  double worst = 1e300;
  timing::VertexId worst_v = timing::kNoVertex;
  for (timing::VertexId v = 0; v < m.graph().num_vertex_slots(); ++v) {
    if (!slack.valid[v]) continue;
    const double s = slack.slack[v].nominal();
    if (s < worst) {
      worst = s;
      worst_v = v;
    }
  }
  std::printf(
      "\nworst mean slack at that period: %.4f ns at pin '%s' "
      "(P{slack<0} = %.2f%%)\n",
      worst, m.graph().vertex(worst_v).name.c_str(),
      100.0 * slack.slack[worst_v].cdf(0.0));
  return 0;
}
