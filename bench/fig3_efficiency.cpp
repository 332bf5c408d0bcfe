// Figure 3: efficiency (temperature reduction : throughput reduction) of
// Dimetrodon on cpuburn as a function of the idle quantum length L, for
// p in {.1, .25, .5, .75}. The paper's findings to reproduce: efficiency
// falls with L (diminishing marginal benefit of longer quanta), shorter
// quanta dominate the pareto boundary (100p/L > 1 at boundary configs), and
// higher-p curves are smoother because more injections average the noise.
#include <cstdio>

#include "bench_util.hpp"
#include "workload/cpuburn.hpp"

using namespace dimetrodon;

int main() {
  std::printf("=== Figure 3: efficiency vs idle quantum length ===\n");
  const std::vector<double> ps = {0.1, 0.25, 0.5, 0.75};
  const std::vector<double> ls_ms = {1, 2, 5, 10, 25, 50, 75, 100};

  sched::MachineConfig cfg;
  auto engine = bench::make_engine(cfg, "fig3_efficiency");
  std::vector<runner::RunSpec> specs;
  specs.push_back(bench::measure_spec(cfg, bench::cpuburn_key(4),
                                      bench::cpuburn_fleet(4),
                                      harness::ActuationSpec::none()));
  for (const double l : ls_ms) {
    for (const double p : ps) {
      specs.push_back(bench::measure_spec(
          cfg, bench::cpuburn_key(4), bench::cpuburn_fleet(4),
          harness::ActuationSpec::global(p, sim::from_ms(l))));
    }
  }
  const auto records = bench::run_all_or_die(engine, specs);
  const auto& baseline = records.at(0).result;
  std::printf("baseline: rise over idle %.1f C (sensor), throughput %.3f\n",
              baseline.avg_sensor_temp_c - baseline.idle_sensor_temp_c,
              baseline.throughput);

  trace::CsvWriter csv(bench::csv_path("fig3_efficiency.csv"),
                       {"p", "L_ms", "temp_reduction", "temp_reduction_exact",
                        "throughput_reduction", "efficiency",
                        "efficiency_exact"});
  trace::Table table({"L(ms)", "p=.1", "p=.25", "p=.5", "p=.75"});
  std::vector<bench::SweepPoint> all_points;
  std::size_t next_record = 1;
  for (const double l : ls_ms) {
    std::vector<std::string> row{trace::fmt("%.0f", l)};
    for (const double p : ps) {
      const auto& run = records.at(next_record++).result;
      const auto t = harness::compute_tradeoff(baseline, run);
      const double eff_exact =
          t.throughput_reduction <= 1e-9
              ? 0.0
              : t.temp_reduction_exact / t.throughput_reduction;
      row.push_back(trace::fmt("%5.2f", std::min(t.efficiency, 99.0)));
      csv.write_row(std::vector<double>{p, l, t.temp_reduction,
                                        t.temp_reduction_exact,
                                        t.throughput_reduction, t.efficiency,
                                        eff_exact});
      all_points.push_back(
          bench::SweepPoint{trace::fmt("p=%.2f,L=%.0fms", p, l), t, run});
    }
    table.add_row(row);
  }
  std::printf("\nefficiency (quantized-sensor pipeline, as the paper "
              "measured):\n");
  table.print(std::cout);

  // Pareto boundary check: the paper notes 100p/L > 1 holds for boundary
  // configurations (short quanta relative to probability).
  std::printf("\npareto boundary configurations (temp reduction vs retained "
              "throughput):\n");
  int boundary_rule_holds = 0;
  int boundary_total = 0;
  const auto frontier_labels = bench::pareto_labels(all_points);
  for (const auto& label : frontier_labels) {
    double p = 0.0;
    double l = 0.0;
    std::sscanf(label.c_str(), "p=%lf,L=%lfms", &p, &l);
    const bool rule = 100.0 * p / l > 1.0;
    boundary_rule_holds += rule ? 1 : 0;
    ++boundary_total;
    std::printf("  %-18s 100p/L = %5.2f %s\n", label.c_str(), 100.0 * p / l,
                rule ? "(>1)" : "(<=1)");
  }
  std::printf("rule 100p/L>1 holds for %d/%d boundary configs (paper: holds "
              "on its boundary)\n",
              boundary_rule_holds, boundary_total);
  std::printf("\nCSV: %s\n", bench::csv_path("fig3_efficiency.csv").c_str());
  return 0;
}
