#include "harness/experiment.hpp"

#include <gtest/gtest.h>

#include <ostream>
#include <utility>

#include "workload/cpuburn.hpp"

namespace dimetrodon::harness {
namespace {

ExperimentRunner make_runner() {
  sched::MachineConfig cfg;
  MeasurementConfig mc;
  mc.measure_window = sim::from_sec(10);  // shorter for unit tests
  return ExperimentRunner(cfg, mc);
}

ExperimentRunner::WorkloadFactory cpuburn4() {
  return [] { return std::make_unique<workload::CpuBurnFleet>(4); };
}

TEST(ExperimentTest, BaselineRunIsHotAndFast) {
  auto runner = make_runner();
  const RunResult r = runner.measure(cpuburn4(), ActuationSpec::none());
  EXPECT_GT(r.avg_sensor_temp_c, r.idle_sensor_temp_c + 20.0);
  EXPECT_NEAR(r.throughput, 4.0, 0.05);
  EXPECT_GT(r.avg_power_w, 60.0);
  EXPECT_DOUBLE_EQ(r.injected_idle_fraction, 0.0);
  EXPECT_FALSE(r.qos.has_value());
  EXPECT_EQ(r.counters.injections, 0u);
  EXPECT_GT(r.counters.dispatches, 0u);
  EXPECT_EQ(r.counters.sensor_samples, 0u);  // no sink, no trace sampler
}

TEST(ExperimentTest, DimetrodonRunCoolerAndSlower) {
  auto runner = make_runner();
  const RunResult base = runner.measure(cpuburn4(), ActuationSpec::none());
  const RunResult dim =
      runner.measure(cpuburn4(), ActuationSpec::global(0.5, sim::from_ms(25)));
  EXPECT_LT(dim.avg_sensor_temp_c, base.avg_sensor_temp_c - 3.0);
  EXPECT_LT(dim.throughput, base.throughput * 0.9);
  EXPECT_GT(dim.injected_idle_fraction, 0.1);

  const Tradeoff t = compute_tradeoff(base, dim);
  EXPECT_GT(t.temp_reduction, 0.1);
  EXPECT_GT(t.throughput_reduction, 0.1);
  EXPECT_GT(t.efficiency, 1.0);
}

TEST(ExperimentTest, TradeoffOfBaselineAgainstItselfIsZero) {
  auto runner = make_runner();
  const RunResult base = runner.measure(cpuburn4(), ActuationSpec::none());
  const Tradeoff t = compute_tradeoff(base, base);
  EXPECT_DOUBLE_EQ(t.temp_reduction, 0.0);
  EXPECT_DOUBLE_EQ(t.throughput_reduction, 0.0);
}

TEST(ExperimentTest, VfsActuationSlowsByFrequencyRatio) {
  auto runner = make_runner();
  const RunResult base = runner.measure(cpuburn4(), ActuationSpec::none());
  const RunResult vfs = runner.measure(cpuburn4(), ActuationSpec::vfs(5));
  const Tradeoff t = compute_tradeoff(base, vfs);
  EXPECT_NEAR(t.throughput_retained, 1.596 / 2.261, 0.01);
}

TEST(ExperimentTest, RunsAreReproducible) {
  auto runner = make_runner();
  const RunResult a =
      runner.measure(cpuburn4(), ActuationSpec::global(0.25, sim::from_ms(10)));
  const RunResult b =
      runner.measure(cpuburn4(), ActuationSpec::global(0.25, sim::from_ms(10)));
  EXPECT_DOUBLE_EQ(a.avg_sensor_temp_c, b.avg_sensor_temp_c);
  EXPECT_DOUBLE_EQ(a.throughput, b.throughput);
}

TEST(ExperimentTest, PostDeployHookSeesThreads) {
  auto runner = make_runner();
  bool called = false;
  runner.measure(
      cpuburn4(), ActuationSpec::global(0.5, sim::from_ms(10)),
      [&](sched::Machine& m, workload::Workload& wl,
          core::DimetrodonController* ctl) {
        called = true;
        EXPECT_EQ(wl.threads().size(), 4u);
        ASSERT_NE(ctl, nullptr);
        ctl->sys_shield_thread(wl.threads()[0]);
        (void)m;
      });
  EXPECT_TRUE(called);
}

TEST(ExperimentTest, RunToCompletionReportsTime) {
  auto runner = make_runner();
  const auto burn = [] {
    return std::make_unique<workload::CpuBurnFleet>(4, 2.0);
  };
  const WindowResult r =
      runner.run_to_completion(burn, ActuationSpec::none(), sim::from_sec(30));
  EXPECT_NEAR(r.completion_seconds, 2.0, 0.05);
  EXPECT_GT(r.meter_energy_j, 0.0);
  EXPECT_NEAR(r.meter_energy_j, r.true_energy_j, 0.12 * r.true_energy_j);
}

TEST(ExperimentTest, RunToCompletionDeadlineMiss) {
  auto runner = make_runner();
  const auto burn = [] {
    return std::make_unique<workload::CpuBurnFleet>(4, 50.0);
  };
  const WindowResult r =
      runner.run_to_completion(burn, ActuationSpec::none(), sim::from_sec(1));
  EXPECT_LT(r.completion_seconds, 0.0);
  EXPECT_NEAR(r.wall_seconds, 1.0, 1e-9);
}

TEST(ExperimentTest, RunWindowTracksCompletionInsideWindow) {
  auto runner = make_runner();
  const auto burn = [] {
    return std::make_unique<workload::CpuBurnFleet>(4, 1.0);
  };
  const WindowResult r =
      runner.run_window(burn, ActuationSpec::none(), sim::from_sec(5));
  EXPECT_NEAR(r.completion_seconds, 1.0, 0.05);
  EXPECT_NEAR(r.wall_seconds, 5.0, 1e-9);
}

TEST(ExperimentTest, WithConfigAppliesMutation) {
  auto runner = make_runner();
  runner.with_config([](sched::MachineConfig& c) { c.num_cores = 2; })
      .with_config([](sched::MachineConfig& c) { c.seed = 99; });
  EXPECT_EQ(runner.base_config().num_cores, 2u);
  EXPECT_EQ(runner.base_config().seed, 99u);
}

TEST(ExperimentTest, CountersCrossCheckInjectedIdleFraction) {
  auto runner = make_runner();
  const RunResult dim =
      runner.measure(cpuburn4(), ActuationSpec::global(0.5, sim::from_ms(25)));
  EXPECT_GT(dim.counters.injections, 0u);
  // The registry accrues the same per-quantum durations the harness sums into
  // injected_idle_fraction, sampled at the same window boundaries.
  const double frac_from_counters =
      static_cast<double>(dim.counters.injected_idle_ns) / 1e9 /
      (sim::to_sec(runner.measurement_config().measure_window) * 4.0);
  EXPECT_NEAR(frac_from_counters, dim.injected_idle_fraction, 1e-9);
}

// Fast measurement schedule for the warm-start tests: one run is a few tens
// of milliseconds of wall time.
ExperimentRunner warm_runner() {
  sched::MachineConfig cfg;
  MeasurementConfig mc;
  mc.max_settle_iterations = 2;
  mc.settle_chunk = sim::from_sec(3);
  mc.post_settle_run = sim::from_sec(1);
  mc.measure_window = sim::from_sec(5);
  return ExperimentRunner(cfg, mc);
}

void expect_results_bit_identical(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.avg_sensor_temp_c, b.avg_sensor_temp_c);
  EXPECT_EQ(a.avg_exact_temp_c, b.avg_exact_temp_c);
  EXPECT_EQ(a.throughput, b.throughput);
  EXPECT_EQ(a.avg_power_w, b.avg_power_w);
  EXPECT_EQ(a.injected_idle_fraction, b.injected_idle_fraction);
  EXPECT_EQ(a.sim_seconds, b.sim_seconds);
}

TEST(ExperimentTest, WarmForkMatchesInlineWarmupBitIdentical) {
  // The warm-start contract: forking from a cached warmup snapshot produces
  // the SAME bits as re-simulating the warmup inline — across different
  // actuations sharing the one prefix.
  auto runner = warm_runner();
  const auto warmup = sim::from_sec(90);
  const sched::MachineSnapshot snap =
      runner.build_warmup_snapshot(cpuburn4(), warmup);
  for (const double p : {0.2, 0.6}) {
    const auto act = ActuationSpec::global(p, sim::from_ms(100));
    const RunResult warm = runner.measure_warm(cpuburn4(), act, snap);
    const RunResult replay = runner.measure_after_warmup(cpuburn4(), act,
                                                         warmup);
    expect_results_bit_identical(warm, replay);
  }
}

TEST(ExperimentTest, WarmupChangesTheMeasuredOperatingPoint) {
  // Sanity that warmup is not a no-op: a warmed machine starts its settle
  // loop hot, so the measured run differs from the cold methodology (which
  // starts at idle equilibrium but settles first — throughput should agree
  // closely, temperatures may differ slightly, but the runs are distinct
  // simulations).
  auto runner = warm_runner();
  const RunResult cold = runner.measure(cpuburn4(), ActuationSpec::none());
  const RunResult warm = runner.measure_after_warmup(
      cpuburn4(), ActuationSpec::none(), sim::from_sec(60));
  EXPECT_GT(warm.avg_exact_temp_c, cold.idle_exact_temp_c);
  EXPECT_NEAR(warm.throughput, cold.throughput, 0.1 * cold.throughput);
}

TEST(ExperimentTest, LabelsPropagate) {
  // Labels feed CSV columns; every kind renders from the spec's fields.
  control::GovernorSpec hysteresis;
  hysteresis.kind = control::GovernorKind::kHysteresis;
  control::GovernorSpec pid;
  pid.kind = control::GovernorKind::kPid;
  const std::pair<ActuationSpec, const char*> golden[] = {
      {ActuationSpec::none(), "race-to-idle"},
      {ActuationSpec::global(0.25, sim::from_ms(50)),
       "dimetrodon[p=0.25,L=50ms]"},
      {ActuationSpec::global_stratified(0.5, sim::from_ms(25)),
       "dimetrodon-det[p=0.50,L=25ms]"},
      {ActuationSpec::vfs(2), "vfs[level=2]"},
      {ActuationSpec::tcc(4), "p4tcc[step=4]"},
      {ActuationSpec::governed(hysteresis), "hysteresis[72/68,p=0.60]"},
      {ActuationSpec::governed(pid, 0.65),
       "pid[set=68,kp=0.10,ki=0.04]+base=0.65"},
  };
  for (const auto& [spec, label] : golden) EXPECT_EQ(spec.label(), label);
}

// The static hardware actuations of the paper's Fig. 4 comparison: apply()
// sets every core's knob, attaches no controller, and cools a settled
// 4x cpuburn machine by more than `min_cooling_c` below race-to-idle.
struct StaticActuationCase {
  const char* name;
  ActuationSpec spec;
  std::size_t dvfs_level;  // expected on every core
  double clock_duty;       // expected on every core
  double min_cooling_c;
};

void PrintTo(const StaticActuationCase& c, std::ostream* os) { *os << c.name; }

class StaticActuationTest
    : public ::testing::TestWithParam<StaticActuationCase> {};

double settled_sensor_temp(const ActuationSpec& actuation) {
  sched::MachineConfig cfg;
  cfg.enable_meter = false;
  sched::Machine m(cfg);
  const auto controller = actuation.apply(m);
  workload::CpuBurnFleet fleet(4);
  fleet.deploy(m);
  for (int i = 0; i < 4; ++i) {
    m.mark_power_window();
    m.run_for(sim::from_sec(8));
    m.jump_to_average_power_steady_state();
  }
  m.run_for(sim::from_sec(3));
  return m.mean_sensor_temp();
}

TEST_P(StaticActuationTest, SetsEveryCoreAndCoolsSettledCpuburn) {
  const StaticActuationCase& c = GetParam();
  sched::MachineConfig cfg;
  cfg.enable_meter = false;
  sched::Machine m(cfg);
  EXPECT_EQ(c.spec.apply(m), nullptr);
  const auto& level = m.config().dvfs.level(c.dvfs_level);
  for (std::size_t i = 0; i < m.num_cores(); ++i) {
    const auto& core = m.core(static_cast<sched::CoreId>(i));
    EXPECT_EQ(core.dvfs_level, c.dvfs_level);
    EXPECT_DOUBLE_EQ(core.op.freq_ghz, level.freq_ghz);
    EXPECT_DOUBLE_EQ(core.op.voltage_v, level.voltage_v);
    EXPECT_DOUBLE_EQ(core.op.clock_duty, c.clock_duty);
  }
  EXPECT_LT(settled_sensor_temp(c.spec),
            settled_sensor_temp(ActuationSpec::none()) - c.min_cooling_c);
}

INSTANTIATE_TEST_SUITE_P(
    PaperBaselines, StaticActuationTest,
    ::testing::Values(
        StaticActuationCase{"vfs5", ActuationSpec::vfs(5), 5, 1.0, 8.0},
        StaticActuationCase{"tcc2", ActuationSpec::tcc(2), 0, 0.25, 10.0}));

// A VFS setpoint other than the Fig. 4 one lands on every core too.
TEST(ThermalPolicyTest, VfsSetsAllCores) {
  sched::MachineConfig cfg;
  cfg.enable_meter = false;
  sched::Machine m(cfg);
  EXPECT_EQ(ActuationSpec::vfs(3).apply(m), nullptr);
  for (std::size_t i = 0; i < m.num_cores(); ++i) {
    const auto& core = m.core(static_cast<sched::CoreId>(i));
    EXPECT_EQ(core.dvfs_level, 3u);
    EXPECT_DOUBLE_EQ(core.op.freq_ghz, m.config().dvfs.level(3).freq_ghz);
    EXPECT_DOUBLE_EQ(core.op.voltage_v, m.config().dvfs.level(3).voltage_v);
  }
}

// Both static techniques, at their Fig. 4 setpoints, cool the same settled
// 4x cpuburn machine well below race-to-idle.
TEST(ThermalPolicyTest, VfsCoolsLoadedMachine) {
  const double unconstrained = settled_sensor_temp(ActuationSpec::none());
  const double vfs = settled_sensor_temp(ActuationSpec::vfs(5));
  const double tcc = settled_sensor_temp(ActuationSpec::tcc(2));
  EXPECT_LT(vfs, unconstrained - 8.0);
  EXPECT_LT(tcc, unconstrained - 10.0);
}

}  // namespace
}  // namespace dimetrodon::harness
