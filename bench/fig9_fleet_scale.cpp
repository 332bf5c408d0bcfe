// Figure 9 (extension): datacenter-scale fleets under a compressed diurnal
// day. The cluster layer runs 100- and 1000-node fleets — racks of ten with
// CRAC recirculation coupling, a sinusoidal diurnal load curve with an
// evening flash crowd — and crosses routing policy (round-robin,
// coolest-node, injection-aware) with the control plane (open-loop
// worst-case injection gradient vs closed-loop hysteresis governors).
//
// Expected shape: round-robin with worst-case open-loop provisioning
// over-throttles through the diurnal trough and still lets the badly cooled
// rack tops set the fleet peak at the flash crowd; thermal-aware routing
// plus governors sheds duty whenever sensors allow and steers work away
// from hot rack positions, beating the baseline on fleet peak temperature
// at equal-or-better p99 in at least one cell (the exit code enforces it).
//
// Artifacts:
//   * bench_results/fig9_fleet_scale.csv — per-cell metrics, deterministic
//     byte-for-byte (CI cmp's a cold vs warm-cache run).
//   * BENCH_fleet.json (override with DIMETRODON_BENCH_JSON) — cells plus
//     per-scale wall-clock and the process peak RSS; NOT byte-stable by
//     design (it records wall time).
//
// `--scale N` limits the run to one fleet size (CI runs the 100-node cell;
// the 1000-node day is the local/acceptance configuration). After the sweep,
// a parallel-advancement probe re-runs one representative cell (coolest-node
// governed) at fleet_threads=1 vs min(8, hardware), three times each,
// alternating, and enforces both halves of the section-11 contract:
// every run bit-identical to the first serial one, and a wall-clock speedup
// bar on the ratio of the median serial to the median pooled wall time (4x
// at 1000 nodes on >=8 cores, 2x at 100 nodes on >=4 cores; recorded as
// skipped on smaller hosts where the bar is unmeasurable).
// `--no-probe` skips it — CI's byte-identity re-runs under different
// DIMETRODON_FLEET_THREADS use that to keep the cross-run cmp cheap.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "cluster/cluster.hpp"
#include "cluster/fleet_spec.hpp"

using namespace dimetrodon;

namespace {

constexpr double kPerNodeRps = 600.0;  // ~0.75 utilization of 4 cores @ 5 ms
constexpr double kWebDemandS = 0.0050;

control::GovernorSpec governor_spec() {
  control::GovernorSpec g;
  g.kind = control::GovernorKind::kHysteresis;
  g.hysteresis.trip_c = 46.0;
  g.hysteresis.release_c = 43.0;
  g.hysteresis.hot_probability = 0.5;
  return g;
}

struct ControlPlane {
  const char* name;
  bool governed;
};

struct Scale {
  std::size_t racks;
  std::size_t per_rack;
  sim::SimTime day;  // diurnal period == run duration (one compressed day)
  std::size_t nodes() const { return racks * per_rack; }
};

cluster::FleetSpec make_fleet(const sched::MachineConfig& base,
                              const Scale& scale,
                              cluster::PolicyKind routing,
                              const ControlPlane& control) {
  workload::WebWorkload::Config web = cluster::ClusterConfig::open_loop_web();
  web.demand_mean_s = kWebDemandS;

  // One compressed day: sinusoidal +/-60% around the base rate, with a flash
  // crowd (x1.8 for an eighth of the day) landing on the cooling evening.
  const cluster::TrafficShape traffic =
      cluster::TrafficShape::diurnal(scale.day, 0.6)
          .with_flash(scale.day * 5 / 8, scale.day / 8, 1.8);

  cluster::FleetSpec spec =
      cluster::FleetSpec::racks(scale.racks)
          .nodes_per_rack(scale.per_rack)
          .with_machine(base)
          .with_web(web)
          .with_cooling(0.9, 0.5)  // rack position degrades bottom -> top
          .with_crac(cluster::RackParams{})
          .with_load(kPerNodeRps * static_cast<double>(scale.nodes()))
          .with_traffic(traffic)
          .with_telemetry(sim::from_ms(20))
          .with_policy(routing, 0.25)
          .for_duration(scale.day);
  if (control.governed) {
    spec.with_governor(governor_spec());
  } else {
    // Open-loop worst case: the operator dials preventive injection up the
    // rack (p = 0.6 at the hottest position) and leaves it there all day.
    spec.with_injection_gradient(0.6);
  }
  return spec;
}

cluster::ClusterRunSpec make_point(const sched::MachineConfig& base,
                                   const Scale& scale,
                                   cluster::PolicyKind routing,
                                   const ControlPlane& control) {
  return make_fleet(base, scale, routing, control).build();
}

struct Cell {
  std::size_t nodes = 0;
  std::string routing;
  std::string control;
  double offered = 0.0;
  double completed = 0.0;
  double throughput = 0.0;
  double p50_s = 0.0;
  double p95_s = 0.0;
  double p99_s = 0.0;
  double good_pct = 0.0;
  double peak_sensor_c = 0.0;
  double peak_exact_c = 0.0;
  double mean_sensor_c = 0.0;
  double peak_inlet_c = 0.0;
  double energy_j = 0.0;
  double drains = 0.0;
  double racks = 0.0;
};

long peak_rss_kb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;  // kilobytes on Linux
}

// ---------------------------------------------------------------------------
// Parallel-advancement probe: one representative cell per scale, serial vs
// pooled, bitwise compared + wall-clock gated.
// ---------------------------------------------------------------------------

bool identical_results(const cluster::ClusterResult& a,
                       const cluster::ClusterResult& b) {
  if (a.offered != b.offered || a.completed != b.completed ||
      a.throughput_rps != b.throughput_rps || a.qos.total != b.qos.total ||
      a.qos.good != b.qos.good || a.qos.fail != b.qos.fail ||
      a.qos.mean_latency_s != b.qos.mean_latency_s ||
      a.qos.p99_latency_s != b.qos.p99_latency_s ||
      a.qos.max_latency_s != b.qos.max_latency_s ||
      a.fleet_peak_sensor_c != b.fleet_peak_sensor_c ||
      a.fleet_peak_exact_c != b.fleet_peak_exact_c ||
      a.fleet_mean_sensor_c != b.fleet_mean_sensor_c ||
      a.fleet_peak_inlet_c != b.fleet_peak_inlet_c || a.drains != b.drains ||
      a.total_energy_j != b.total_energy_j || !(a.counters == b.counters) ||
      a.nodes.size() != b.nodes.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.nodes.size(); ++i) {
    if (a.nodes[i].routed != b.nodes[i].routed ||
        a.nodes[i].completed != b.nodes[i].completed ||
        a.nodes[i].peak_sensor_c != b.nodes[i].peak_sensor_c ||
        a.nodes[i].mean_sensor_c != b.nodes[i].mean_sensor_c ||
        a.nodes[i].drains != b.nodes[i].drains ||
        a.nodes[i].governor_trips != b.nodes[i].governor_trips) {
      return false;
    }
  }
  return true;
}

// Runs per side of the probe. One wall-clock sample per side is at the mercy
// of host noise (one read 1.78x against the 2.0x bar on a 4-vCPU host that
// passes it otherwise); the median of three alternating runs is steadier.
constexpr int kProbeRuns = 3;

struct ProbeResult {
  std::size_t nodes = 0;
  std::size_t fleet_threads = 0;
  double serial_wall = 0.0;    // median over kProbeRuns
  double parallel_wall = 0.0;  // median over kProbeRuns
  double speedup = 0.0;
  bool bit_identical = false;
  std::string gate;  // "pass" | "fail" | "skipped (N-core host)"
  bool failed = false;
};

ProbeResult probe_scale(const sched::MachineConfig& base, const Scale& scale) {
  ProbeResult p;
  p.nodes = scale.nodes();
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  p.fleet_threads = std::min<std::size_t>(8, hw);

  const ControlPlane governed{"governed", true};
  const auto run_with = [&](std::size_t threads, double& wall) {
    auto fleet =
        make_fleet(base, scale, cluster::PolicyKind::kCoolestNode, governed)
            .with_fleet_threads(threads)
            .make_cluster();
    const auto t0 = std::chrono::steady_clock::now();
    cluster::ClusterResult r = fleet->run(scale.day);
    wall = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
               .count();
    return r;
  };

  std::printf("  probing %zu-node cell: fleet_threads 1 vs %zu, %d runs "
              "each...\n",
              p.nodes, p.fleet_threads, kProbeRuns);
  std::vector<double> serial_walls(kProbeRuns);
  std::vector<double> pooled_walls(kProbeRuns);
  const cluster::ClusterResult reference = run_with(1, serial_walls[0]);
  p.bit_identical = true;
  for (int i = 0; i < kProbeRuns; ++i) {
    if (i > 0) {
      p.bit_identical &=
          identical_results(reference, run_with(1, serial_walls[i]));
    }
    p.bit_identical &= identical_results(
        reference, run_with(p.fleet_threads, pooled_walls[i]));
  }
  const auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  p.serial_wall = median(serial_walls);
  p.parallel_wall = median(pooled_walls);
  p.speedup = p.parallel_wall > 0.0 ? p.serial_wall / p.parallel_wall : 0.0;
  if (!p.bit_identical) p.failed = true;

  // The speedup bar only means something when the host has the cores the bar
  // assumes; on smaller machines record the numbers but skip the verdict.
  const double bar = p.nodes >= 1000 ? 4.0 : 2.0;
  const unsigned need_cores = p.nodes >= 1000 ? 8 : 4;
  if (hw < need_cores) {
    p.gate = "skipped (" + std::to_string(hw) + "-core host)";
  } else if (p.speedup >= bar) {
    p.gate = "pass";
  } else {
    p.gate = "fail";
    p.failed = true;
  }
  std::printf("    median serial %.2f s, %zu threads %.2f s -> %.2fx "
              "(bar %.1fx: %s, identical=%d)\n",
              p.serial_wall, p.fleet_threads, p.parallel_wall, p.speedup, bar,
              p.gate.c_str(), p.bit_identical ? 1 : 0);
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("=== Figure 9: fleet scale under a diurnal day ===\n");

  std::vector<Scale> scales = {
      {10, 10, sim::from_sec(8)},    // 100 nodes, 8 s day
      {100, 10, sim::from_sec(4)},   // 1000 nodes, 4 s day
  };
  bool probe = true;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--scale") == 0 && i + 1 < argc) {
      const std::size_t want = std::strtoul(argv[i + 1], nullptr, 10);
      std::erase_if(scales, [&](const Scale& s) { return s.nodes() != want; });
    } else if (std::strcmp(argv[i], "--no-probe") == 0) {
      probe = false;
    }
  }
  if (scales.empty()) {
    std::fprintf(stderr, "unknown --scale (have 100, 1000)\n");
    return 1;
  }

  sched::MachineConfig base;
  base.enable_meter = false;

  const cluster::PolicyKind kRoutings[] = {
      cluster::PolicyKind::kRoundRobin,
      cluster::PolicyKind::kCoolestNode,
      cluster::PolicyKind::kInjectionAware,
  };
  const ControlPlane kControls[] = {
      {"open-loop", false},
      {"governed", true},
  };

  runner::SweepEngine engine = bench::make_engine(base, "fig9_fleet_scale");

  std::vector<std::string> header = {
      "nodes", "routing", "control", "offered", "completed", "throughput_rps",
      "p50_s", "p95_s", "p99_s", "good_pct", "fleet_peak_sensor_c",
      "fleet_peak_exact_c", "fleet_mean_sensor_c", "fleet_peak_inlet_c",
      "energy_j", "drains", "racks"};
  for (const std::string& col : bench::stability_columns()) {
    header.push_back(col);
  }
  trace::CsvWriter csv(bench::csv_path("fig9_fleet_scale.csv"), header);
  trace::Table table({"nodes", "routing", "control", "thr(rps)", "p99(s)",
                      "good%", "peak C", "inlet C", "E(kJ)", "drains"});

  std::vector<Cell> cells;
  std::vector<std::pair<std::size_t, double>> wall_by_scale;

  for (const Scale& scale : scales) {
    std::vector<runner::RunSpec> specs;
    for (const ControlPlane& control : kControls) {
      for (const auto routing : kRoutings) {
        specs.push_back(
            cluster::to_run_spec(make_point(base, scale, routing, control)));
      }
    }
    const auto t0 = std::chrono::steady_clock::now();
    const auto records = bench::run_all_or_die(engine, specs);
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    wall_by_scale.emplace_back(scale.nodes(), wall);

    std::size_t idx = 0;
    for (const ControlPlane& control : kControls) {
      for ([[maybe_unused]] const auto routing : kRoutings) {
        const runner::RunRecord& rec = records.at(idx++);
        const auto& qos = *rec.result.qos;
        Cell c;
        c.nodes = scale.nodes();
        c.routing = rec.result.label;
        c.control = control.name;
        c.offered = rec.metric("offered");
        c.completed = rec.metric("completed");
        c.throughput = rec.result.throughput;
        c.p50_s = qos.p50_latency_s;
        c.p95_s = qos.p95_latency_s;
        c.p99_s = qos.p99_latency_s;
        c.good_pct = 100 * qos.good_fraction();
        c.peak_sensor_c = rec.metric("fleet_peak_sensor_c");
        c.peak_exact_c = rec.metric("fleet_peak_exact_c");
        c.mean_sensor_c = rec.metric("fleet_mean_sensor_c");
        c.peak_inlet_c = rec.metric("fleet_peak_inlet_c");
        c.energy_j = rec.metric("energy_j");
        c.drains = rec.metric("drains");
        c.racks = rec.metric("racks");
        cells.push_back(c);

        std::vector<std::string> row = {
            trace::fmt("%zu", c.nodes), c.routing, c.control,
            trace::fmt("%.0f", c.offered), trace::fmt("%.0f", c.completed),
            trace::fmt("%.10g", c.throughput), trace::fmt("%.10g", c.p50_s),
            trace::fmt("%.10g", c.p95_s), trace::fmt("%.10g", c.p99_s),
            trace::fmt("%.10g", c.good_pct),
            trace::fmt("%.10g", c.peak_sensor_c),
            trace::fmt("%.10g", c.peak_exact_c),
            trace::fmt("%.10g", c.mean_sensor_c),
            trace::fmt("%.10g", c.peak_inlet_c),
            trace::fmt("%.10g", c.energy_j), trace::fmt("%.0f", c.drains),
            trace::fmt("%.0f", c.racks)};
        for (const std::string& v : bench::stability_values(rec)) {
          row.push_back(v);
        }
        csv.write_row(row);
        table.add_row({trace::fmt("%zu", c.nodes), c.routing, c.control,
                       trace::fmt("%9.1f", c.throughput),
                       trace::fmt("%.4f", c.p99_s),
                       trace::fmt("%5.1f", c.good_pct),
                       trace::fmt("%5.1f", c.peak_exact_c),
                       trace::fmt("%5.1f", c.peak_inlet_c),
                       trace::fmt("%6.1f", c.energy_j / 1000.0),
                       trace::fmt("%4.0f", c.drains)});
      }
    }
    std::printf("  %zu-node day swept in %.1f s wall\n", scale.nodes(), wall);
  }
  table.print(std::cout);

  // Acceptance: thermal-aware routing + governors beats the round-robin
  // open-loop baseline on fleet peak temperature at equal-or-better p99.
  struct Win {
    const Cell* candidate;
    const Cell* baseline;
  };
  std::vector<Win> wins;
  for (const Cell& g : cells) {
    if (g.control != "governed" || g.routing == "round-robin") continue;
    for (const Cell& b : cells) {
      if (b.control != "open-loop" || b.routing != "round-robin" ||
          b.nodes != g.nodes) {
        continue;
      }
      if (g.peak_exact_c < b.peak_exact_c && g.p99_s <= b.p99_s) {
        wins.push_back({&g, &b});
      }
    }
  }

  std::printf("\nthermal-aware + governed wins vs round-robin open-loop: "
              "%zu\n", wins.size());
  for (const Win& w : wins) {
    std::printf("  %zu nodes, %s/governed: peak %.2f C vs %.2f C, "
                "p99 %.4f s vs %.4f s\n",
                w.candidate->nodes, w.candidate->routing.c_str(),
                w.candidate->peak_exact_c, w.baseline->peak_exact_c,
                w.candidate->p99_s, w.baseline->p99_s);
  }

  std::vector<ProbeResult> probes;
  if (probe) {
    std::printf("\nparallel-advancement probe (coolest-node governed cell):\n");
    for (const Scale& scale : scales) {
      probes.push_back(probe_scale(base, scale));
    }
  }

  const long rss_kb = peak_rss_kb();
  std::printf("peak RSS: %.1f MB\n", static_cast<double>(rss_kb) / 1024.0);

  const char* env = std::getenv("DIMETRODON_BENCH_JSON");
  const std::string json_path =
      (env != nullptr && *env) ? env : "BENCH_fleet.json";
  std::FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", json_path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"schema\": \"dimetrodon-bench-fleet v2\",\n"
               "  \"per_node_rps\": %.0f,\n"
               "  \"peak_rss_kb\": %ld,\n"
               "  \"scales\": [\n",
               kPerNodeRps, rss_kb);
  for (std::size_t s = 0; s < wall_by_scale.size(); ++s) {
    const auto& [nodes, wall] = wall_by_scale[s];
    std::fprintf(f,
                 "    {\"nodes\": %zu, \"wall_seconds\": %.3f, \"cells\": [\n",
                 nodes, wall);
    bool first = true;
    for (const Cell& c : cells) {
      if (c.nodes != nodes) continue;
      if (!first) std::fprintf(f, ",\n");
      first = false;
      std::fprintf(
          f,
          "      {\"routing\": \"%s\", \"control\": \"%s\", "
          "\"offered\": %.0f, \"throughput_rps\": %.10g, \"p99_s\": %.10g, "
          "\"good_pct\": %.10g, \"peak_sensor_c\": %.10g, "
          "\"peak_exact_c\": %.10g, \"peak_inlet_c\": %.10g, "
          "\"energy_j\": %.10g, \"drains\": %.0f}",
          c.routing.c_str(), c.control.c_str(), c.offered, c.throughput,
          c.p99_s, c.good_pct, c.peak_sensor_c, c.peak_exact_c,
          c.peak_inlet_c, c.energy_j, c.drains);
    }
    std::fprintf(f, "\n    ]}%s\n",
                 s + 1 < wall_by_scale.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"parallel\": [\n");
  for (std::size_t i = 0; i < probes.size(); ++i) {
    const ProbeResult& p = probes[i];
    std::fprintf(f,
                 "    {\"nodes\": %zu, \"fleet_threads\": %zu, "
                 "\"serial_wall_seconds\": %.3f, "
                 "\"parallel_wall_seconds\": %.3f, "
                 "\"parallel_speedup\": %.3f, \"bit_identical\": %s, "
                 "\"gate\": \"%s\"}%s\n",
                 p.nodes, p.fleet_threads, p.serial_wall, p.parallel_wall,
                 p.speedup, p.bit_identical ? "true" : "false",
                 p.gate.c_str(), i + 1 < probes.size() ? "," : "");
  }
  std::fprintf(f,
               "  ],\n"
               "  \"acceptance\": {\n"
               "    \"thermal_aware_governed_wins\": %zu\n"
               "  }\n"
               "}\n",
               wins.size());
  std::fclose(f);

  std::printf("wrote %s and %s\n",
              bench::csv_path("fig9_fleet_scale.csv").c_str(),
              json_path.c_str());

  int rc = 0;
  if (wins.empty()) {
    std::fprintf(stderr,
                 "[bench] acceptance FAILED: no thermal-aware governed cell "
                 "beat round-robin open-loop on peak temp at equal-or-better "
                 "p99\n");
    rc = 1;
  }
  for (const ProbeResult& p : probes) {
    if (!p.bit_identical) {
      std::fprintf(stderr,
                   "[bench] acceptance FAILED: %zu-node parallel advancement "
                   "is not bit-identical to serial\n",
                   p.nodes);
      rc = 1;
    } else if (p.failed) {
      std::fprintf(stderr,
                   "[bench] acceptance FAILED: %zu-node parallel speedup "
                   "%.2fx below the bar at %zu threads\n",
                   p.nodes, p.speedup, p.fleet_threads);
      rc = 1;
    }
  }
  return rc;
}
