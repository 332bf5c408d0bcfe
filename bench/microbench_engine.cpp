// Engine micro-benchmarks (google-benchmark): the hot paths that bound how
// fast the reproduction sweeps run — event queue churn, implicit-Euler RC
// stepping, scheduler dispatch, and whole-machine simulated seconds.
//
// Besides the google-benchmark suite, main() always runs the acceptance
// measurement for the closed-form thermal fast-forward — the 300 s cpuburn×4
// machine-advance workload under the pre-fast-forward reference stepper and
// under the lazy clock — and writes the machine-readable result to
// BENCH_engine.json (override the path with DIMETRODON_BENCH_JSON) so CI can
// track the perf trajectory as an artifact.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "core/controller.hpp"
#include "harness/experiment.hpp"
#include "sched/machine.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "thermal/floorplan.hpp"
#include "thermal/linalg.hpp"
#include "thermal/rc_network.hpp"
#include "workload/cpuburn.hpp"

using namespace dimetrodon;

namespace {

void BM_EventQueueScheduleAndRun(benchmark::State& state) {
  sim::EventQueue q;
  const sim::TimerId id = q.add();
  sim::SimTime t = 0;
  std::uint64_t sink = 0;
  for (auto _ : state) {
    q.arm(id, t + 100, 1);
    const sim::Event e = q.pop();
    t = e.at;
    sink += e.tag;
  }
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_EventQueueScheduleAndRun);

void BM_EventQueueDeepHeap(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    sim::EventQueue q;
    for (int i = 0; i < depth; ++i) {
      q.arm(q.add(), (i * 7919) % 104729, 0);
    }
    state.ResumeTiming();
    while (!q.empty()) benchmark::DoNotOptimize(q.pop());
  }
}
BENCHMARK(BM_EventQueueDeepHeap)->Arg(64)->Arg(1024)->Arg(16384);

void BM_RngUniform(benchmark::State& state) {
  sim::Rng rng(42);
  double sink = 0.0;
  for (auto _ : state) sink += rng.uniform();
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_RngUniform);

// The matvec kernels behind every modal transform (three per advance). Arg is
// the matrix size; the unrolled kernel must beat (or at worst match) the
// naive reference while staying bitwise-identical — the parity half lives in
// tests/thermal/linalg_test.cpp, the speed half is tracked here.
thermal::DenseMatrix filled_matrix(std::size_t n) {
  thermal::DenseMatrix m(n);
  unsigned seed = 1234u + static_cast<unsigned>(n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      seed = seed * 1664525u + 1013904223u;
      m.at(r, c) = static_cast<double>(seed % 100000) / 9973.0 - 5.0;
    }
  }
  return m;
}

std::vector<double> filled_vector(std::size_t n) {
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = 0.37 * static_cast<double>(i) - 3.0;
  }
  return x;
}

void BM_DenseMatvec(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const thermal::DenseMatrix m = filled_matrix(n);
  const std::vector<double> x = filled_vector(n);
  std::vector<double> y;
  for (auto _ : state) thermal::matvec(m, x, y);
  benchmark::DoNotOptimize(y.data());
  state.SetLabel("unrolled");
}
BENCHMARK(BM_DenseMatvec)->Arg(8)->Arg(32)->Arg(128);

void BM_DenseMatvecReference(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const thermal::DenseMatrix m = filled_matrix(n);
  const std::vector<double> x = filled_vector(n);
  std::vector<double> y;
  for (auto _ : state) thermal::matvec_reference(m, x, y);
  benchmark::DoNotOptimize(y.data());
  state.SetLabel("reference");
}
BENCHMARK(BM_DenseMatvecReference)->Arg(8)->Arg(32)->Arg(128);

void BM_RcNetworkStep(benchmark::State& state) {
  thermal::RcNetwork net;
  thermal::FloorplanParams params;
  const auto nodes = thermal::build_server_floorplan(net, params);
  for (std::size_t i = 0; i < 4; ++i) net.set_power(nodes.die[i], 12.0);
  net.set_power(nodes.package, 18.0);
  for (auto _ : state) net.step(0.00025);
  benchmark::DoNotOptimize(net.temperature(nodes.die[0]));
}
BENCHMARK(BM_RcNetworkStep);

// The modal propagator: one simulated second of 250 µs substeps in one
// closed-form pass of three matvecs — the fast path under every machine
// advance.
void BM_RcNetworkFastForward(benchmark::State& state) {
  thermal::RcNetwork net;
  thermal::FloorplanParams params;
  const auto nodes = thermal::build_server_floorplan(net, params);
  for (std::size_t i = 0; i < 4; ++i) net.set_power(nodes.die[i], 12.0);
  net.set_power(nodes.package, 18.0);
  const auto k = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) net.advance(0.00025, k);
  state.SetLabel(std::to_string(k) + " substeps/advance");
  benchmark::DoNotOptimize(net.temperature(nodes.die[0]));
}
BENCHMARK(BM_RcNetworkFastForward)->Arg(20)->Arg(4000);

void BM_RcNetworkSteadyState(benchmark::State& state) {
  thermal::RcNetwork net;
  thermal::FloorplanParams params;
  const auto nodes = thermal::build_server_floorplan(net, params);
  for (std::size_t i = 0; i < 4; ++i) net.set_power(nodes.die[i], 12.0);
  for (auto _ : state) net.solve_steady_state();
  benchmark::DoNotOptimize(net.temperature(nodes.die[0]));
}
BENCHMARK(BM_RcNetworkSteadyState);

void BM_MachineSimulatedSecond(benchmark::State& state) {
  sched::MachineConfig cfg;
  cfg.enable_meter = state.range(0) != 0;
  sched::Machine machine(cfg);
  workload::CpuBurnFleet fleet(4);
  fleet.deploy(machine);
  for (auto _ : state) machine.run_for(sim::kSecond);
  state.SetLabel(cfg.enable_meter ? "meter on" : "meter off");
}
BENCHMARK(BM_MachineSimulatedSecond)->Arg(0)->Arg(1);

// Pre-fast-forward baseline: the 250 µs self-rescheduling substep event and
// one sequential implicit-Euler step per substep.
void BM_MachineSecondReferenceStepper(benchmark::State& state) {
  sched::MachineConfig cfg;
  cfg.enable_meter = false;
  cfg.thermal_reference_stepper = true;
  sched::Machine machine(cfg);
  workload::CpuBurnFleet fleet(4);
  fleet.deploy(machine);
  for (auto _ : state) machine.run_for(sim::kSecond);
}
BENCHMARK(BM_MachineSecondReferenceStepper);

void BM_MachineSecondUnderInjection(benchmark::State& state) {
  sched::MachineConfig cfg;
  cfg.enable_meter = false;
  sched::Machine machine(cfg);
  core::DimetrodonController ctl(machine);
  // Worst case for the event engine: 1 ms quanta at high probability.
  ctl.sys_set_global(0.75, sim::from_ms(state.range(0)));
  workload::CpuBurnFleet fleet(4);
  fleet.deploy(machine);
  for (auto _ : state) machine.run_for(sim::kSecond);
}
BENCHMARK(BM_MachineSecondUnderInjection)->Arg(1)->Arg(10)->Arg(100);

// Tracing overhead on the scheduler hot path. Arg 0: no sink attached (the
// probes must collapse to counter increments plus one predicted branch —
// the subsystem's <2% overhead budget). Arg 1: ring-buffer sink attached,
// showing the full cost of event capture. High-frequency injection maximizes
// probe density (sched switches + C-state transitions + injection events).
void BM_MachineSecondTracing(benchmark::State& state) {
  sched::MachineConfig cfg;
  cfg.enable_meter = false;
  auto sink = std::make_shared<obs::RingBufferSink>();
  if (state.range(0) != 0) {
    cfg.trace_sink_factory = [sink]() { return sink; };
  }
  sched::Machine machine(cfg);
  core::DimetrodonController ctl(machine);
  ctl.sys_set_global(0.75, sim::from_ms(1));
  workload::CpuBurnFleet fleet(4);
  fleet.deploy(machine);
  for (auto _ : state) machine.run_for(sim::kSecond);
  state.SetLabel(state.range(0) != 0 ? "ring-buffer sink" : "no sink");
  state.counters["events"] =
      static_cast<double>(machine.tracer().counters().totals().dispatches);
}
BENCHMARK(BM_MachineSecondTracing)->Arg(0)->Arg(1);

// ---------------------------------------------------------------------------
// Acceptance measurement: 300 s cpuburn×4 machine advance, reference stepper
// vs closed-form fast-forward, written as machine-readable JSON.
// ---------------------------------------------------------------------------

struct AdvanceResult {
  double wall_seconds = 0.0;
  double sim_seconds_per_sec = 0.0;
  double ns_per_substep = 0.0;
  std::uint64_t substeps = 0;
  std::uint64_t fast_forward_steps = 0;
  std::uint64_t matvecs = 0;
  std::uint64_t factorizations = 0;
  std::uint64_t events_executed = 0;
};

AdvanceResult measure_machine_advance(bool reference, double sim_seconds) {
  sched::MachineConfig cfg;
  cfg.enable_meter = false;
  cfg.thermal_reference_stepper = reference;
  sched::Machine machine(cfg);
  workload::CpuBurnFleet fleet(4);
  fleet.deploy(machine);
  const auto t0 = std::chrono::steady_clock::now();
  machine.run_for(sim::from_sec(sim_seconds));
  const auto t1 = std::chrono::steady_clock::now();

  AdvanceResult r;
  r.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  r.sim_seconds_per_sec =
      r.wall_seconds > 0.0 ? sim_seconds / r.wall_seconds : 0.0;
  const obs::CounterTotals t = machine.counters().totals();
  r.substeps = t.thermal_substeps;
  r.fast_forward_steps = t.thermal_fast_forward_steps;
  r.matvecs = t.thermal_matvecs;
  r.factorizations = t.thermal_factorizations;
  r.events_executed = machine.simulator().events_executed();
  r.ns_per_substep =
      r.substeps > 0 ? r.wall_seconds * 1e9 / static_cast<double>(r.substeps)
                     : 0.0;
  return r;
}

double measure_event_queue_ops_per_sec() {
  sim::EventQueue q;
  const sim::TimerId id = q.add();
  sim::SimTime t = 0;
  std::uint64_t sink = 0;
  constexpr int kOps = 1'000'000;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kOps; ++i) {
    q.arm(id, t + 100, 1);
    const sim::Event e = q.pop();
    t = e.at;
    sink += e.tag;
  }
  const auto t1 = std::chrono::steady_clock::now();
  benchmark::DoNotOptimize(sink);
  const double wall = std::chrono::duration<double>(t1 - t0).count();
  return wall > 0.0 ? kOps / wall : 0.0;
}

// ---------------------------------------------------------------------------
// Acceptance cell: warm-start sweep. Eight injection setpoints sharing one
// 240 s unactuated cpuburn×4 warmup, measured cold (each point re-simulates
// the warmup) and warm (one snapshot build, eight forks). The forked results
// must be bit-identical to the replayed ones, and sharing the prefix must cut
// end-to-end wall time at least in half.
// ---------------------------------------------------------------------------

struct WarmStartResult {
  int points = 0;
  double warmup_sim_seconds = 0.0;
  double cold_wall = 0.0;
  double warm_wall = 0.0;
  double speedup = 0.0;
  bool bit_identical = false;
};

WarmStartResult measure_warm_start() {
  constexpr double kWarmupSeconds = 240.0;
  const std::vector<double> probs = {0.05, 0.15, 0.25, 0.35,
                                     0.45, 0.55, 0.65, 0.75};
  harness::MeasurementConfig mc;
  mc.max_settle_iterations = 1;
  mc.settle_chunk = sim::from_sec(2);
  mc.post_settle_run = sim::from_sec(1);
  mc.measure_window = sim::from_sec(5);
  mc.sensor_poll = sim::from_ms(500);
  sched::MachineConfig cfg;
  harness::ExperimentRunner runner(cfg, mc);
  const auto factory = []() -> std::unique_ptr<workload::Workload> {
    return std::make_unique<workload::CpuBurnFleet>(4);
  };
  const sim::SimTime warmup = sim::from_sec(kWarmupSeconds);

  WarmStartResult r;
  r.points = static_cast<int>(probs.size());
  r.warmup_sim_seconds = kWarmupSeconds;

  std::vector<harness::RunResult> cold;
  auto t0 = std::chrono::steady_clock::now();
  for (const double p : probs) {
    cold.push_back(runner.measure_after_warmup(
        factory, harness::ActuationSpec::global(p, sim::from_ms(100)),
        warmup));
  }
  r.cold_wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  std::vector<harness::RunResult> warm;
  t0 = std::chrono::steady_clock::now();
  const sched::MachineSnapshot snap =
      runner.build_warmup_snapshot(factory, warmup);
  for (const double p : probs) {
    warm.push_back(runner.measure_warm(
        factory, harness::ActuationSpec::global(p, sim::from_ms(100)), snap));
  }
  r.warm_wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  r.speedup = r.warm_wall > 0.0 ? r.cold_wall / r.warm_wall : 0.0;
  r.bit_identical = true;
  for (std::size_t i = 0; i < probs.size(); ++i) {
    if (cold[i].avg_sensor_temp_c != warm[i].avg_sensor_temp_c ||
        cold[i].avg_exact_temp_c != warm[i].avg_exact_temp_c ||
        cold[i].throughput != warm[i].throughput ||
        cold[i].avg_power_w != warm[i].avg_power_w ||
        cold[i].injected_idle_fraction != warm[i].injected_idle_fraction ||
        cold[i].sim_seconds != warm[i].sim_seconds) {
      r.bit_identical = false;
      std::fprintf(stderr,
                   "warm-start MISMATCH at p=%.2f: "
                   "sensor %.17g vs %.17g, throughput %.17g vs %.17g\n",
                   probs[i], cold[i].avg_sensor_temp_c,
                   warm[i].avg_sensor_temp_c, cold[i].throughput,
                   warm[i].throughput);
    }
  }
  return r;
}

void put_advance(std::FILE* f, const char* key, const AdvanceResult& r,
                 const char* trailing) {
  std::fprintf(
      f,
      "    \"%s\": {\n"
      "      \"wall_seconds\": %.6f,\n"
      "      \"sim_seconds_per_sec\": %.3f,\n"
      "      \"ns_per_substep\": %.3f,\n"
      "      \"substeps\": %llu,\n"
      "      \"fast_forward_steps\": %llu,\n"
      "      \"matvecs\": %llu,\n"
      "      \"factorizations\": %llu,\n"
      "      \"events_executed\": %llu\n"
      "    }%s\n",
      key, r.wall_seconds, r.sim_seconds_per_sec, r.ns_per_substep,
      static_cast<unsigned long long>(r.substeps),
      static_cast<unsigned long long>(r.fast_forward_steps),
      static_cast<unsigned long long>(r.matvecs),
      static_cast<unsigned long long>(r.factorizations),
      static_cast<unsigned long long>(r.events_executed), trailing);
}

int write_engine_json() {
  const char* env = std::getenv("DIMETRODON_BENCH_JSON");
  const std::string path = (env != nullptr && *env) ? env : "BENCH_engine.json";
  constexpr double kSimSeconds = 300.0;  // the paper's Fig. 2 horizon

  std::fprintf(stderr, "measuring %g s cpuburn×4 machine advance "
               "(reference stepper)...\n", kSimSeconds);
  const AdvanceResult ref = measure_machine_advance(true, kSimSeconds);
  std::fprintf(stderr, "measuring %g s cpuburn×4 machine advance "
               "(fast-forward)...\n", kSimSeconds);
  const AdvanceResult fast = measure_machine_advance(false, kSimSeconds);
  const double event_ops = measure_event_queue_ops_per_sec();
  const double speedup = ref.sim_seconds_per_sec > 0.0
                             ? fast.sim_seconds_per_sec / ref.sim_seconds_per_sec
                             : 0.0;
  std::fprintf(stderr, "measuring warm-start sweep (8 points, 240 s shared "
               "warmup)...\n");
  const WarmStartResult warm = measure_warm_start();

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"schema\": \"dimetrodon-bench-engine v3\",\n"
               "  \"machine_advance\": {\n"
               "    \"workload\": \"cpuburn x4\",\n"
               "    \"sim_seconds\": %.1f,\n",
               kSimSeconds);
  put_advance(f, "reference", ref, ",");
  put_advance(f, "fast_forward", fast, ",");
  std::fprintf(f,
               "    \"speedup\": %.3f\n"
               "  },\n"
               "  \"event_queue\": {\n"
               "    \"ops_per_sec\": %.0f\n"
               "  },\n",
               speedup, event_ops);
  std::fprintf(f,
               "  \"warm_start\": {\n"
               "    \"points\": %d,\n"
               "    \"warmup_sim_seconds\": %.1f,\n"
               "    \"cold_wall_seconds\": %.6f,\n"
               "    \"warm_wall_seconds\": %.6f,\n"
               "    \"speedup\": %.3f,\n"
               "    \"bit_identical\": %s\n"
               "  }\n"
               "}\n",
               warm.points, warm.warmup_sim_seconds, warm.cold_wall,
               warm.warm_wall, warm.speedup,
               warm.bit_identical ? "true" : "false");
  std::fclose(f);
  std::fprintf(stderr,
               "machine advance: reference %.2f sim-s/s, fast-forward %.2f "
               "sim-s/s (%.1fx) -> %s\n",
               ref.sim_seconds_per_sec, fast.sim_seconds_per_sec, speedup,
               path.c_str());
  std::fprintf(stderr,
               "warm start: cold %.3fs, warm %.3fs (%.2fx, identical=%d)\n",
               warm.cold_wall, warm.warm_wall, warm.speedup,
               warm.bit_identical ? 1 : 0);

  // Acceptance bars — a regression here fails the bench binary (and CI).
  int rc = 0;
  if (!warm.bit_identical) {
    std::fprintf(stderr,
                 "BAR FAILED: warm-start fork is not bit-identical to the "
                 "replayed warmup\n");
    rc = 1;
  }
  if (warm.speedup < 2.0) {
    std::fprintf(stderr,
                 "BAR FAILED: warm-start speedup %.2fx below the 2x bar\n",
                 warm.speedup);
    rc = 1;
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return write_engine_json();
}
