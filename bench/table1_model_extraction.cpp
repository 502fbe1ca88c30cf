// Reproduction of the paper's Table I: statistical timing-model extraction
// on the ten ISCAS85 circuits. For every circuit the harness reports the
// original and model graph sizes (Eo, Vo, Em, Vm), the compression ratios
// (pe, pv), the worst relative error of the model's IO-delay means and
// standard deviations against a flat Monte Carlo reference of the original
// netlist (merr, verr), and the extraction wall time T.
//
// Flags: --samples N (MC reference samples, default 10000 as in the
// paper), --delta X (criticality threshold, default 0.05), --quick.

#include <cstdio>
#include <iostream>

#include "common.hpp"
#include "hssta/core/io_delays.hpp"
#include "hssta/mc/flat_mc.hpp"
#include "hssta/stats/rng.hpp"
#include "hssta/util/csv.hpp"
#include "hssta/util/strings.hpp"
#include "hssta/util/table.hpp"

namespace {

using namespace hssta;

struct PaperRow {
  const char* circuit;
  int eo, vo, em, vm;
  double pe, pv, merr, verr, t;
};

// The published Table I, for side-by-side comparison.
constexpr PaperRow kPaper[] = {
    {"c432", 336, 196, 45, 46, 0.13, 0.23, 0.0023, 0.0096, 0.05},
    {"c499", 408, 243, 176, 99, 0.43, 0.41, 0.0014, 0.0094, 0.14},
    {"c880", 729, 443, 249, 115, 0.34, 0.26, 0.0056, 0.0030, 0.21},
    {"c1355", 1064, 587, 143, 99, 0.13, 0.17, 0.0044, 0.0026, 0.37},
    {"c1908", 1498, 913, 264, 93, 0.18, 0.10, 0.0082, 0.0147, 0.36},
    {"c2670", 2076, 1426, 410, 335, 0.20, 0.23, 0.0026, 0.0128, 10.15},
    {"c3540", 2939, 1719, 440, 141, 0.15, 0.08, 0.0049, 0.0072, 0.93},
    {"c5315", 4386, 2485, 966, 424, 0.22, 0.17, 0.0072, 0.0147, 15.35},
    {"c6288", 4800, 2448, 429, 188, 0.09, 0.08, 0.0103, 0.0160, 2.08},
    {"c7552", 6144, 3719, 1073, 546, 0.17, 0.15, 0.0121, 0.0158, 21.94},
};

/// Worst relative IO mean/sigma error of the model against the MC reference.
struct Accuracy {
  double merr = 0.0;
  double verr = 0.0;
};

Accuracy compare(const core::DelayMatrix& model, const mc::IoStats& ref) {
  Accuracy acc;
  for (size_t i = 0; i < ref.num_inputs; ++i) {
    for (size_t j = 0; j < ref.num_outputs; ++j) {
      if (!ref.is_valid(i, j) || !model.is_valid(i, j)) continue;
      const double m_ref = ref.mean_at(i, j);
      const double s_ref = ref.sigma_at(i, j);
      if (m_ref < 1e-9) continue;
      acc.merr = std::max(
          acc.merr, std::abs(model.at(i, j).nominal() - m_ref) / m_ref);
      if (s_ref > 1e-9)
        acc.verr = std::max(
            acc.verr, std::abs(model.at(i, j).sigma() - s_ref) / s_ref);
    }
  }
  return acc;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::BenchArgs::parse(argc, argv, 10000);
  std::printf(
      "Table I reproduction: gray-box statistical timing model extraction\n"
      "delta = %g, MC reference = %zu samples (paper: 10000), seed = %llu\n\n",
      args.delta, args.samples,
      static_cast<unsigned long long>(args.seed));

  Table ours({"Circuit", "Eo", "Vo", "Em", "Vm", "pe", "pv", "merr", "verr",
              "T(s)"});
  Table paper({"Circuit", "Eo", "Vo", "Em", "Vm", "pe", "pv", "merr", "verr",
               "T(s)"});
  CsvWriter csv(bench::out_path("table1.csv"));
  csv.write_row(std::vector<std::string>{"circuit", "Eo", "Vo", "Em", "Vm",
                                         "pe", "pv", "merr", "verr", "T"});

  double sum_pe = 0, sum_pv = 0, sum_merr = 0, sum_verr = 0;
  for (const PaperRow& row : kPaper) {
    const flow::Module module = bench::module_for_iscas(row.circuit);
    const model::Extraction& ex =
        module.extract_model(model::ExtractOptions{args.delta, true});

    stats::Rng rng(args.seed);
    const mc::IoStats ref =
        module.flat_circuit().sample_io_delays(args.samples, rng);
    const Accuracy acc = compare(ex.model.io_delays(), ref);

    const auto& st = ex.stats;
    ours.add_row({row.circuit, std::to_string(st.original_edges),
                  std::to_string(st.original_vertices),
                  std::to_string(st.model_edges),
                  std::to_string(st.model_vertices),
                  fmt_percent(st.edge_ratio(), 0),
                  fmt_percent(st.vertex_ratio(), 0),
                  fmt_percent(acc.merr, 2), fmt_percent(acc.verr, 2),
                  fmt_double(st.seconds, 3)});
    csv.write_row(std::vector<double>{
        static_cast<double>(st.original_edges),
        static_cast<double>(st.original_vertices),
        static_cast<double>(st.model_edges),
        static_cast<double>(st.model_vertices), st.edge_ratio(),
        st.vertex_ratio(), acc.merr, acc.verr, st.seconds});
    sum_pe += st.edge_ratio();
    sum_pv += st.vertex_ratio();
    sum_merr += acc.merr;
    sum_verr += acc.verr;

    paper.add_row({row.circuit, std::to_string(row.eo),
                   std::to_string(row.vo), std::to_string(row.em),
                   std::to_string(row.vm), fmt_percent(row.pe, 0),
                   fmt_percent(row.pv, 0), fmt_percent(row.merr, 2),
                   fmt_percent(row.verr, 2), fmt_double(row.t, 3)});
    std::printf("done: %-6s Em/Eo=%5.1f%%  merr=%.2f%%  verr=%.2f%%\n",
                row.circuit, 100.0 * st.edge_ratio(), 100.0 * acc.merr,
                100.0 * acc.verr);
  }
  const double n = static_cast<double>(std::size(kPaper));
  ours.add_row({"average", "", "", "", "", fmt_percent(sum_pe / n, 0),
                fmt_percent(sum_pv / n, 0), fmt_percent(sum_merr / n, 2),
                fmt_percent(sum_verr / n, 2), ""});
  paper.add_row({"average", "", "", "", "", "20%", "19%", "0.59%", "1.06%",
                 ""});

  std::printf("\n");
  ours.print(std::cout, "== Measured (this reproduction) ==");
  std::printf("\n");
  paper.print(std::cout, "== Published (Li et al., DATE'09, Table I) ==");
  std::printf(
      "\nNotes: circuits are synthetic ISCAS85 equivalents (see DESIGN.md);\n"
      "Eo/Vo match the published statistics by construction, compression\n"
      "and error columns are expected to match in magnitude, not digit-for-"
      "digit.\nCSV: %s\n",
      bench::out_path("table1.csv").c_str());
  return 0;
}
