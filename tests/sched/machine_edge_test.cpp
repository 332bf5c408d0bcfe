// Edge-of-envelope machine behaviours: odd core counts, kernel-thread
// preemption, injection interacting with DVFS/idle states, and long idle
// stability.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "core/controller.hpp"
#include "sched/machine.hpp"
#include "workload/cpuburn.hpp"
#include "workload/web.hpp"

namespace dimetrodon::sched {
namespace {

MachineConfig cores_config(std::size_t n) {
  MachineConfig cfg;
  cfg.enable_meter = false;
  cfg.num_cores = n;
  return cfg;
}

class FixedWork final : public ThreadBehavior {
 public:
  explicit FixedWork(double work) : work_(work) {}
  Burst next_burst(sim::SimTime, sim::Rng&) override { return {work_, 1.0}; }
  BurstOutcome on_burst_complete(sim::SimTime, sim::Rng&) override {
    return BurstOutcome::Exit();
  }

 private:
  double work_;
};

TEST(MachineEdgeTest, SingleCoreMachineWorks) {
  Machine m(cores_config(1));
  workload::CpuBurnFleet fleet(2, 1.0);
  fleet.deploy(m);
  m.run_until_condition([&] { return fleet.all_done(m); }, sim::from_sec(5));
  EXPECT_TRUE(fleet.all_done(m));
  EXPECT_NEAR(sim::to_sec(m.now()), 2.0, 0.1);
}

TEST(MachineEdgeTest, EightCoreMachineWorks) {
  Machine m(cores_config(8));
  workload::CpuBurnFleet fleet(8, 1.0);
  fleet.deploy(m);
  m.run_for(sim::from_sec(2));
  EXPECT_TRUE(fleet.all_done(m));
  EXPECT_NEAR(fleet.progress(m), 8.0, 1e-6);
  // Eight dies exist and heat up.
  EXPECT_GT(m.die_temperature(7), 30.0);
}

TEST(MachineEdgeTest, SingleCoreInjectionMatchesModel) {
  Machine m(cores_config(1));
  core::DimetrodonController ctl(m);
  ctl.sys_set_global(0.5, sim::from_ms(50));
  workload::CpuBurnFleet fleet(1);
  fleet.deploy(m);
  m.run_for(sim::from_sec(20));
  EXPECT_NEAR(fleet.progress(m) / 20.0, 1.0 / 1.5, 0.06);
}

TEST(MachineEdgeTest, KernelThreadPreemptsUserThread) {
  // All cores busy with user threads; a waking kernel thread must preempt
  // one rather than queue behind 100 ms quanta.
  MachineConfig cfg = cores_config(4);
  Machine m(cfg);
  workload::CpuBurnFleet fleet(4);
  fleet.deploy(m);
  m.run_for(sim::from_ms(30));  // mid-quantum everywhere

  class OneShot final : public ThreadBehavior {
   public:
    Burst next_burst(sim::SimTime, sim::Rng&) override { return {0.001, 1.0}; }
    BurstOutcome on_burst_complete(sim::SimTime now, sim::Rng&) override {
      finished_at = now;
      return BurstOutcome::SleepUntilWoken();
    }
    sim::SimTime finished_at = -1;
  };
  auto behavior = std::make_unique<OneShot>();
  auto* raw = behavior.get();
  const sim::SimTime created = m.now();
  m.create_thread("isr", ThreadClass::kKernel, 0, std::move(behavior));
  m.run_for(sim::from_ms(20));
  ASSERT_GE(raw->finished_at, 0);
  // Served within ~2 ms (preemption + 1 ms work), NOT after a 70 ms quantum
  // tail.
  EXPECT_LT(sim::to_sec(raw->finished_at - created), 0.005);
}

TEST(MachineEdgeTest, KernelWaitsWhenInjectionBlocksAllCores) {
  // The §3.1 double-delay hazard, literal mechanism: with every core inside
  // an injected idle quantum and kernel_preempts_injection=false, a waking
  // kernel thread is delayed until a quantum ends.
  MachineConfig cfg = cores_config(1);
  cfg.injection_suspends_thread = false;
  cfg.kernel_preempts_injection = false;
  Machine m(cfg);
  core::DimetrodonController ctl(m);
  ctl.sys_set_global(1.0, sim::from_ms(100));  // always inject
  workload::CpuBurnFleet fleet(1);
  fleet.deploy(m);
  m.run_for(sim::from_ms(10));  // inside the first injected quantum

  class OneShot final : public ThreadBehavior {
   public:
    Burst next_burst(sim::SimTime, sim::Rng&) override { return {0.001, 1.0}; }
    BurstOutcome on_burst_complete(sim::SimTime now, sim::Rng&) override {
      finished_at = now;
      return BurstOutcome::SleepUntilWoken();
    }
    sim::SimTime finished_at = -1;
  };
  auto behavior = std::make_unique<OneShot>();
  auto* raw = behavior.get();
  const sim::SimTime created = m.now();
  m.create_thread("isr", ThreadClass::kKernel, 0, std::move(behavior));
  m.run_for(sim::from_ms(200));
  ASSERT_GE(raw->finished_at, 0);
  // Had to wait out the rest of the 100 ms idle quantum.
  EXPECT_GT(sim::to_sec(raw->finished_at - created), 0.05);
}

TEST(MachineEdgeTest, KernelCanCutInjectionShortWhenConfigured) {
  MachineConfig cfg = cores_config(1);
  cfg.injection_suspends_thread = false;
  cfg.kernel_preempts_injection = true;
  Machine m(cfg);
  core::DimetrodonController ctl(m);
  ctl.sys_set_global(1.0, sim::from_ms(100));
  workload::CpuBurnFleet fleet(1);
  fleet.deploy(m);
  m.run_for(sim::from_ms(10));

  class OneShot final : public ThreadBehavior {
   public:
    Burst next_burst(sim::SimTime, sim::Rng&) override { return {0.001, 1.0}; }
    BurstOutcome on_burst_complete(sim::SimTime now, sim::Rng&) override {
      finished_at = now;
      return BurstOutcome::SleepUntilWoken();
    }
    sim::SimTime finished_at = -1;
  };
  auto behavior = std::make_unique<OneShot>();
  auto* raw = behavior.get();
  const sim::SimTime created = m.now();
  m.create_thread("isr", ThreadClass::kKernel, 0, std::move(behavior));
  m.run_for(sim::from_ms(200));
  ASSERT_GE(raw->finished_at, 0);
  EXPECT_LT(sim::to_sec(raw->finished_at - created), 0.01);
}

TEST(MachineEdgeTest, InjectionComposesWithDvfs) {
  // Frequency scaling and injection stack: throughput ~ (f/f0) * model.
  Machine m(cores_config(4));
  m.set_all_dvfs_levels(5);
  core::DimetrodonController ctl(m);
  ctl.sys_set_global(0.5, sim::from_ms(50));
  workload::CpuBurnFleet fleet(4);
  fleet.deploy(m);
  m.run_for(sim::from_sec(20));
  const double f_ratio = 1.596 / 2.261;
  EXPECT_NEAR(fleet.progress(m) / 20.0, 4.0 * f_ratio / 1.5, 0.15);
}

TEST(MachineEdgeTest, LongIdleMachineStaysStable) {
  Machine m(cores_config(4));
  const double t0 = m.die_temperature(0);
  m.run_for(sim::from_sec(120));
  EXPECT_NEAR(m.die_temperature(0), t0, 0.5);
  EXPECT_NEAR(m.current_total_power(), m.current_total_power(), 1e-9);
}

TEST(MachineEdgeTest, C1IdleStateConfigurable) {
  MachineConfig cfg = cores_config(4);
  cfg.idle_cstate = power::CState::kC1;
  Machine m(cfg);
  // C1 keeps full-voltage leakage: idle machine runs warmer than C1E.
  MachineConfig cfg_e = cores_config(4);
  Machine me(cfg_e);
  EXPECT_GT(m.die_temperature(0), me.die_temperature(0) + 0.5);
}

TEST(MachineEdgeTest, CalloutInPastClampsToNow) {
  Machine m(cores_config(1));
  m.run_for(sim::from_ms(10));
  sim::SimTime ran_at = -1;
  const auto id = m.add_callout("probe", [&](sim::SimTime t) { ran_at = t; });
  m.arm_callout(id, 0);
  m.run_for(sim::from_ms(1));
  EXPECT_EQ(ran_at, sim::from_ms(10));
}

TEST(MachineEdgeTest, ArmCalloutOutOfRangeThrows) {
  Machine m(cores_config(1));
  EXPECT_THROW(m.arm_callout(0, sim::from_ms(1)), std::out_of_range);
  const auto id = m.add_callout("probe", [](sim::SimTime) {});
  EXPECT_NO_THROW(m.arm_callout(id, sim::from_ms(1)));
  EXPECT_THROW(m.arm_callout(id + 1, sim::from_ms(1)), std::out_of_range);
}

TEST(MachineEdgeTest, RearmingArmedCalloutMovesIt) {
  Machine m(cores_config(1));
  std::vector<sim::SimTime> fired;
  const auto id =
      m.add_callout("probe", [&](sim::SimTime t) { fired.push_back(t); });
  const std::size_t base = m.simulator().queue().size();
  m.arm_callout(id, sim::from_ms(5));
  m.arm_callout(id, sim::from_ms(3));
  EXPECT_EQ(m.simulator().queue().size(), base + 1);
  m.run_for(sim::from_ms(10));
  EXPECT_EQ(fired, (std::vector<sim::SimTime>{sim::from_ms(3)}));
  // A callback may re-arm its own callout (a periodic controller does).
  Machine::CalloutId again = 0;
  again = m.add_callout("periodic", [&](sim::SimTime t) {
    fired.push_back(t);
    if (fired.size() < 4) m.arm_callout(again, t + sim::from_ms(1));
  });
  m.arm_callout(again, m.now() + sim::from_ms(1));
  m.run_for(sim::from_ms(10));
  EXPECT_EQ(fired, (std::vector<sim::SimTime>{sim::from_ms(3), sim::from_ms(11),
                                              sim::from_ms(12),
                                              sim::from_ms(13)}));
}

TEST(MachineEdgeTest, CreateThreadMidRunJoinsScheduling) {
  Machine m(cores_config(2));
  workload::CpuBurnFleet fleet(2);
  fleet.deploy(m);
  m.run_for(sim::from_sec(1));
  const ThreadId late = m.create_thread("late", ThreadClass::kUser, 0,
                                        std::make_unique<FixedWork>(0.2));
  m.run_for(sim::from_sec(2));
  EXPECT_EQ(m.thread(late).state(), ThreadState::kDone);
}

TEST(MachineEdgeTest, NiceThreadYieldsToNormalOnSharedCore) {
  Machine m(cores_config(1));
  const ThreadId nice_tid = m.create_thread(
      "nice", ThreadClass::kUser, 15, std::make_unique<FixedWork>(0.5), 0);
  const ThreadId normal_tid = m.create_thread(
      "normal", ThreadClass::kUser, 0, std::make_unique<FixedWork>(0.5), 0);
  m.run_until_condition(
      [&] {
        return m.thread(nice_tid).state() == ThreadState::kDone &&
               m.thread(normal_tid).state() == ThreadState::kDone;
      },
      sim::from_sec(5));
  // The normal-priority thread finishes first despite being created second.
  EXPECT_LT(m.thread(normal_tid).finished_at(),
            m.thread(nice_tid).finished_at());
}

}  // namespace
}  // namespace dimetrodon::sched
