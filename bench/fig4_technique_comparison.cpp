// Figure 4: wide-range parameter sweeps of Dimetrodon compared to voltage
// and frequency scaling (VFS) and p4tcc clock-duty throttling, with the
// pareto boundary marked. Shapes to reproduce: Dimetrodon wins for small
// temperature reductions (short quanta), VFS wins beyond roughly 30%
// (quadratic voltage benefit), and p4tcc fails to reach even 1:1 at high
// reductions.
#include <cstdio>

#include "bench_util.hpp"
#include "workload/cpuburn.hpp"

using namespace dimetrodon;

int main() {
  std::printf("=== Figure 4: Dimetrodon vs VFS vs p4tcc (cpuburn) ===\n");
  sched::MachineConfig cfg;
  auto engine = bench::make_engine(cfg, "fig4_technique_comparison");

  // One grid, three technique families: baseline first, then Dimetrodon,
  // the VFS ladder, and the p4tcc duty steps.
  std::vector<runner::RunSpec> specs;
  const auto add = [&](harness::ActuationSpec act) {
    specs.push_back(bench::measure_spec(cfg, bench::cpuburn_key(4),
                                        bench::cpuburn_fleet(4), act));
  };
  add(harness::ActuationSpec::none());
  std::size_t num_dim = 0;
  for (const double p : {0.1, 0.25, 0.5, 0.75, 0.9}) {
    for (const double l : {1.0, 5.0, 10.0, 25.0, 50.0, 100.0}) {
      add(harness::ActuationSpec::global(p, sim::from_ms(l)));
      ++num_dim;
    }
  }
  std::size_t num_vfs = 0;
  for (std::size_t level = 1; level < cfg.dvfs.num_levels(); ++level) {
    add(harness::ActuationSpec::vfs(level));
    ++num_vfs;
  }
  for (std::size_t step = 7; step >= 2; --step) {
    add(harness::ActuationSpec::tcc(step));
  }

  const auto sweep = bench::run_measured_sweep(engine, std::move(specs));
  const auto dim_points = std::vector<bench::SweepPoint>(
      sweep.points.begin(), sweep.points.begin() + num_dim);
  const auto vfs_points = std::vector<bench::SweepPoint>(
      sweep.points.begin() + num_dim,
      sweep.points.begin() + num_dim + num_vfs);
  const auto tcc_points = std::vector<bench::SweepPoint>(
      sweep.points.begin() + num_dim + num_vfs, sweep.points.end());

  trace::CsvWriter csv(bench::csv_path("fig4_technique_comparison.csv"),
                       {"technique", "config", "temp_reduction",
                        "throughput_reduction", "efficiency", "on_pareto"});

  // Joint pareto boundary across all techniques (the darkened curve).
  const auto frontier = bench::pareto_labels(sweep.points);
  const auto on_frontier = [&](const std::string& label) {
    for (const auto& f : frontier) {
      if (f == label) return true;
    }
    return false;
  };

  for (const auto* group : {&dim_points, &vfs_points, &tcc_points}) {
    for (const auto& pt : *group) {
      const char* technique = group == &dim_points ? "dimetrodon"
                              : group == &vfs_points ? "vfs"
                                                     : "p4tcc";
      csv.write_row({technique, pt.label,
                     trace::fmt("%.6f", pt.tradeoff.temp_reduction),
                     trace::fmt("%.6f", pt.tradeoff.throughput_reduction),
                     trace::fmt("%.4f", pt.tradeoff.efficiency),
                     on_frontier(pt.label) ? "1" : "0"});
    }
  }

  bench::print_sweep("Dimetrodon sweep:", dim_points);
  bench::print_sweep("VFS ladder:", vfs_points);
  bench::print_sweep("p4tcc duty steps:", tcc_points);

  std::printf("\njoint pareto boundary (darkened in the paper's figure):\n");
  for (const auto& label : frontier) std::printf("  %s\n", label.c_str());

  // Crossover analysis: best technique per temperature-reduction band.
  std::printf("\nbest technique by temperature-reduction band:\n");
  for (double lo = 0.0; lo < 0.9; lo += 0.1) {
    const double hi = lo + 0.1;
    const bench::SweepPoint* best = nullptr;
    const char* best_tech = "";
    for (const auto* group : {&dim_points, &vfs_points, &tcc_points}) {
      for (const auto& pt : *group) {
        if (pt.tradeoff.temp_reduction < lo ||
            pt.tradeoff.temp_reduction >= hi) {
          continue;
        }
        if (best == nullptr || pt.tradeoff.throughput_retained >
                                   best->tradeoff.throughput_retained) {
          best = &pt;
          best_tech = group == &dim_points ? "dimetrodon"
                      : group == &vfs_points ? "vfs"
                                             : "p4tcc";
        }
      }
    }
    if (best != nullptr) {
      std::printf("  r in [%2.0f%%, %2.0f%%): %-10s (%s, keeps %.1f%% "
                  "throughput)\n",
                  100 * lo, 100 * hi, best_tech, best->label.c_str(),
                  100 * best->tradeoff.throughput_retained);
    }
  }
  std::printf("\npaper anchors: Dimetrodon best up to ~30%% reductions; VFS "
              "best beyond (e.g. 30%% throughput -> ~50%% temperature); "
              "p4tcc below 1:1 at high reductions.\n");
  std::printf("CSV: %s\n",
              bench::csv_path("fig4_technique_comparison.csv").c_str());
  return 0;
}
