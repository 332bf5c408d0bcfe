#pragma once

// Shared plumbing for the per-figure/per-table reproduction binaries.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/pareto.hpp"
#include "harness/experiment.hpp"
#include "runner/sweep_engine.hpp"
#include "trace/csv.hpp"
#include "trace/table.hpp"
#include "workload/cpuburn.hpp"
#include "workload/spec.hpp"

namespace dimetrodon::bench {

/// Directory CSV artifacts are written to (created on demand).
inline std::string results_dir() {
  const std::string dir = "bench_results";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  return dir;
}

inline std::string csv_path(const std::string& name) {
  return results_dir() + "/" + name;
}

/// One measured sweep entry: configuration label + trade-off vs baseline.
struct SweepPoint {
  std::string label;
  harness::Tradeoff tradeoff;
  harness::RunResult run;
};

inline analysis::TradeoffPoint to_tradeoff_point(const SweepPoint& p) {
  return analysis::TradeoffPoint{p.tradeoff.temp_reduction,
                                 p.tradeoff.throughput_retained, p.label};
}

/// Render a sweep as the trade-off table the paper's figures plot.
inline void print_sweep(const std::string& title,
                        const std::vector<SweepPoint>& points) {
  std::printf("\n%s\n", title.c_str());
  trace::Table table({"config", "temp_red_%", "temp_red_exact_%",
                      "thr_red_%", "efficiency"});
  for (const auto& p : points) {
    table.add_row({p.label, trace::fmt("%6.2f", 100 * p.tradeoff.temp_reduction),
                   trace::fmt("%6.2f", 100 * p.tradeoff.temp_reduction_exact),
                   trace::fmt("%6.2f", 100 * p.tradeoff.throughput_reduction),
                   trace::fmt("%5.2f", p.tradeoff.efficiency)});
  }
  table.print(std::cout);
}

/// Mark pareto-frontier members (the "darkened" boundary of Figs. 4-6).
inline std::vector<std::string> pareto_labels(
    const std::vector<SweepPoint>& points) {
  std::vector<analysis::TradeoffPoint> tps;
  tps.reserve(points.size());
  for (const auto& p : points) tps.push_back(to_tradeoff_point(p));
  std::vector<std::string> labels;
  for (const auto& tp : analysis::pareto_frontier(tps)) {
    labels.push_back(tp.label);
  }
  return labels;
}

// --- sweep-engine plumbing --------------------------------------------------
// All grid-shaped benches execute through one runner::SweepEngine: points run
// on a work-stealing pool (DIMETRODON_SWEEP_THREADS, default all cores) and
// completed points are replayed from bench_results/cache/ on re-runs
// (DIMETRODON_SWEEP_CACHE=0 disables). Progress goes to stderr; a metrics
// JSON lands next to the bench's CSV.

/// Engine over `cfg` with env-tunable parallelism/caching; `bench_name`
/// names the metrics JSON (bench_results/<bench_name>_metrics.json).
inline runner::SweepEngine make_engine(const sched::MachineConfig& cfg,
                                       const std::string& bench_name) {
  results_dir();  // the metrics JSON needs the directory to exist
  return runner::SweepEngine(cfg,
                             runner::SweepEngineConfig::from_env(bench_name));
}

/// `cfg` with a shared ring-buffer trace sink attached (src/obs): every
/// machine built from the returned config emits structured events into
/// `sink`. Trace runs must bypass the result cache — a cached replay never
/// constructs a machine, so nothing would be traced.
inline sched::MachineConfig with_trace(
    sched::MachineConfig cfg, std::shared_ptr<obs::RingBufferSink> sink) {
  cfg.trace_sink_factory = [sink]() { return sink; };
  return cfg;
}

/// Workload factory + stable cache key for an n-instance cpuburn fleet.
inline harness::ExperimentRunner::WorkloadFactory cpuburn_fleet(int n) {
  return [n] { return std::make_unique<workload::CpuBurnFleet>(n); };
}
inline std::string cpuburn_key(int n) {
  return "cpuburn:" + std::to_string(n);
}

/// Factory + key for an n-instance SPEC CPU2006 fleet ("cpuburn" maps to the
/// cpuburn fleet so Table-1-style loops can treat all rows uniformly).
inline harness::ExperimentRunner::WorkloadFactory workload_fleet(
    const std::string& name, int n) {
  if (name == "cpuburn") return cpuburn_fleet(n);
  const auto profile = *workload::find_spec_profile(name);
  return [profile, n] {
    return std::make_unique<workload::SpecFleet>(profile, n);
  };
}
inline std::string workload_key(const std::string& name, int n) {
  return name == "cpuburn" ? cpuburn_key(n)
                           : "spec:" + name + ":" + std::to_string(n);
}

/// Measured-run spec under `cfg`. The seed defaults to the machine's own, so
/// an engine sweep is bit-identical to the serial ExperimentRunner loop it
/// replaces.
inline runner::RunSpec measure_spec(
    const sched::MachineConfig& cfg, std::string key,
    harness::ExperimentRunner::WorkloadFactory factory,
    harness::ActuationSpec actuation,
    harness::MeasurementConfig mc = harness::MeasurementConfig{}) {
  runner::RunSpec spec;
  spec.workload_key = std::move(key);
  spec.workload = std::move(factory);
  spec.actuation = actuation;
  spec.measurement = mc;
  spec.seed = cfg.seed;
  return spec;
}

/// Measured-run spec with a per-run machine override (C-state, scheduler,
/// and injection-semantics ablations).
inline runner::RunSpec measure_spec_on(
    sched::MachineConfig machine, std::string key,
    harness::ExperimentRunner::WorkloadFactory factory,
    harness::ActuationSpec actuation,
    harness::MeasurementConfig mc = harness::MeasurementConfig{}) {
  runner::RunSpec spec = measure_spec(machine, std::move(key),
                                      std::move(factory), actuation, mc);
  spec.machine = std::move(machine);
  return spec;
}

/// Custom-run spec: `tag` is the run's cache identity (it must encode every
/// parameter the function closes over), `fn` receives the machine config with
/// the spec's seed already applied. Benches that want the engine's execution
/// context (shared pool / lanes hint — fleet benches) pass a 3-arg function
/// via the overload below; this 2-arg form ignores the context.
inline runner::RunSpec custom_spec(
    const sched::MachineConfig& cfg, std::string tag,
    std::function<runner::RunRecord(const runner::RunSpec&,
                                    const sched::MachineConfig&)>
        fn) {
  runner::RunSpec spec;
  spec.kind = runner::RunSpec::Kind::kCustom;
  spec.custom_tag = std::move(tag);
  spec.custom = [fn = std::move(fn)](const runner::RunSpec& s,
                                     const sched::MachineConfig& mc,
                                     const runner::RunContext&) {
    return fn(s, mc);
  };
  spec.seed = cfg.seed;
  return spec;
}

/// Context-aware overload: `fn` additionally receives the RunContext so a
/// custom run can fan nested work onto the engine's pool.
inline runner::RunSpec custom_spec_ctx(
    const sched::MachineConfig& cfg, std::string tag,
    std::function<runner::RunRecord(const runner::RunSpec&,
                                    const sched::MachineConfig&,
                                    const runner::RunContext&)>
        fn) {
  runner::RunSpec spec;
  spec.kind = runner::RunSpec::Kind::kCustom;
  spec.custom_tag = std::move(tag);
  spec.custom = std::move(fn);
  spec.seed = cfg.seed;
  return spec;
}

/// Lookup in a record's extras with a fallback instead of dying: benches
/// whose grids mix governed and open-loop cells (fig8) — or older figures
/// adopting the stability columns (fig6/fig7) — read metrics that only
/// governed runs produce.
inline double metric_or(const runner::RunRecord& rec, const std::string& key,
                        double fallback) {
  for (const auto& [k, v] : rec.extra) {
    if (k == key) return v;
  }
  return fallback;
}

// --- control-stability columns ----------------------------------------------
// Every cluster record (and any custom record that adopts the same extra
// names) carries the src/control stability metrics; these helpers give all
// figure CSVs the same column block so plots can be joined across benches.

/// Header names for the per-cell stability metric columns.
inline std::vector<std::string> stability_columns() {
  return {"duty_reversals", "osc_amp_duty", "osc_amp_temp_c", "overshoot_c",
          "settling_s"};
}

/// Values matching stability_columns(), formatted for CSV. Open-loop cells
/// (no governed node) render as zeros with settling_s = -1, same as the
/// in-memory StabilityMetrics defaults.
inline std::vector<std::string> stability_values(
    const runner::RunRecord& rec) {
  return {trace::fmt("%.0f", metric_or(rec, "duty_reversals", 0.0)),
          trace::fmt("%.10g", metric_or(rec, "osc_amp_duty", 0.0)),
          trace::fmt("%.10g", metric_or(rec, "osc_amp_temp_c", 0.0)),
          trace::fmt("%.10g", metric_or(rec, "overshoot_c", 0.0)),
          trace::fmt("%.10g", metric_or(rec, "settling_s", -1.0))};
}

/// Run the grid and exit with a readable report if any point failed: a
/// figure or table must never be drawn from a partial grid, and the
/// structured RunErrors (also in the bench's *_metrics.json) say exactly
/// which configs to fix before re-running — every completed point is already
/// cached, so the re-run only repeats the failures.
inline std::vector<runner::RunRecord> run_all_or_die(
    runner::SweepEngine& engine, const std::vector<runner::RunSpec>& specs) {
  runner::SweepResult sweep = engine.run(specs);
  if (!sweep.all_ok()) {
    std::fprintf(stderr, "[bench] aborting: %zu of %zu runs failed\n",
                 sweep.errors.size(), sweep.size());
    for (const auto& e : sweep.errors) {
      std::fprintf(stderr, "[bench]   #%zu %s (seed=%llx): %s\n",
                   e.spec_index, e.spec_label.c_str(),
                   static_cast<unsigned long long>(e.seed), e.what.c_str());
    }
    std::exit(1);
  }
  return std::move(sweep.records);
}

/// A baseline-plus-grid sweep executed in one engine pass: specs[0] is the
/// unconstrained baseline and every later spec becomes a SweepPoint with its
/// trade-off computed against it — the loop fig3/fig4/table1 each hand-rolled.
struct MeasuredSweep {
  harness::RunResult baseline;
  std::vector<SweepPoint> points;
};

inline MeasuredSweep run_measured_sweep(runner::SweepEngine& engine,
                                        std::vector<runner::RunSpec> specs) {
  const auto records = run_all_or_die(engine, specs);
  MeasuredSweep out;
  out.baseline = records.at(0).result;
  out.points.reserve(records.size() - 1);
  for (std::size_t i = 1; i < records.size(); ++i) {
    const auto& run = records[i].result;
    out.points.push_back(SweepPoint{
        run.label, harness::compute_tradeoff(out.baseline, run), run});
  }
  return out;
}

}  // namespace dimetrodon::bench
