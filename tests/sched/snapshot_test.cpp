// Machine snapshot/restore contract: a run forked from a snapshot is
// bit-identical to replaying the same prefix inline (fork ≡ replay), and
// every unsupported configuration is refused loudly instead of silently
// diverging.
#include "sched/machine.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <vector>

#include "workload/cpuburn.hpp"

namespace dimetrodon::sched {
namespace {

MachineConfig snap_config() {
  MachineConfig cfg;
  cfg.enable_meter = false;  // meters sample wall-clock state; not snapshotable
  return cfg;
}

void expect_machines_bit_identical(Machine& a, Machine& b) {
  ASSERT_EQ(a.now(), b.now());
  const auto sa = a.thermal_network().save_state();
  const auto sb = b.thermal_network().save_state();
  ASSERT_EQ(sa.temps.size(), sb.temps.size());
  for (std::size_t i = 0; i < sa.temps.size(); ++i) {
    EXPECT_EQ(sa.temps[i], sb.temps[i]) << "thermal node " << i;
    EXPECT_EQ(sa.powers[i], sb.powers[i]) << "thermal node " << i;
  }
  EXPECT_EQ(a.energy().total_joules(), b.energy().total_joules());
  EXPECT_EQ(a.mean_sensor_temp(), b.mean_sensor_temp());
  ASSERT_EQ(a.thread_count(), b.thread_count());
  for (ThreadId id = 0; id < a.thread_count(); ++id) {
    EXPECT_EQ(a.thread(id).cpu_seconds_consumed(),
              b.thread(id).cpu_seconds_consumed())
        << "thread " << id;
    EXPECT_EQ(a.thread(id).work_completed(), b.thread(id).work_completed())
        << "thread " << id;
    EXPECT_EQ(a.thread(id).bursts_completed(), b.thread(id).bursts_completed())
        << "thread " << id;
    EXPECT_EQ(a.thread(id).state(), b.thread(id).state()) << "thread " << id;
  }
  const auto& ca = a.counters();
  const auto& cb = b.counters();
  for (std::size_t i = 0; i < ca.num_cores(); ++i) {
    EXPECT_EQ(ca.core(i).dispatches, cb.core(i).dispatches) << i;
    EXPECT_EQ(ca.core(i).context_switches, cb.core(i).context_switches) << i;
    EXPECT_EQ(ca.core(i).injections, cb.core(i).injections) << i;
    EXPECT_EQ(ca.core(i).injected_idle_ns, cb.core(i).injected_idle_ns) << i;
    EXPECT_EQ(ca.core(i).idle_ns, cb.core(i).idle_ns) << i;
  }
  EXPECT_EQ(a.simulator().events_executed(), b.simulator().events_executed());
}

TEST(MachineSnapshotTest, ForkMatchesReplayBitIdentical) {
  // Reference: one uninterrupted run to 25 s.
  Machine replay(snap_config());
  workload::CpuBurnFleet replay_fleet(4, 1.5);
  replay_fleet.deploy(replay);
  replay.run_for(sim::from_sec(25));

  // Fork: snapshot a twin at 10 s, restore into a fresh machine, continue.
  Machine builder(snap_config());
  workload::CpuBurnFleet builder_fleet(4, 1.5);
  builder_fleet.deploy(builder);
  builder.run_for(sim::from_sec(10));
  const MachineSnapshot snap = builder.snapshot();

  Machine forked(snap_config());
  workload::CpuBurnFleet forked_fleet(4, 1.5);
  forked_fleet.deploy(forked);
  forked.restore(snap);
  EXPECT_EQ(forked.now(), sim::from_sec(10));
  forked.run_for(sim::from_sec(15));

  expect_machines_bit_identical(replay, forked);
}

TEST(MachineSnapshotTest, SnapshotDoesNotPerturbTheRunningMachine) {
  // Taking a snapshot is observation only: a machine that snapshots mid-run
  // finishes bit-identically to one that never did. Both runs pause at 8 s
  // (pausing itself splits partial-burst accounting, so the pause points
  // must match); only the snapshot call differs.
  Machine plain(snap_config());
  workload::CpuBurnFleet plain_fleet(4);
  plain_fleet.deploy(plain);
  plain.run_for(sim::from_sec(8));
  plain.run_for(sim::from_sec(12));

  Machine observed(snap_config());
  workload::CpuBurnFleet observed_fleet(4);
  observed_fleet.deploy(observed);
  observed.run_for(sim::from_sec(8));
  (void)observed.snapshot();
  observed.run_for(sim::from_sec(12));

  expect_machines_bit_identical(plain, observed);
}

TEST(MachineSnapshotTest, RestoredMachineKeepsRngStreams) {
  // The master RNG and every per-thread stream are part of the snapshot;
  // post-restore stochastic decisions (burst durations, injection draws)
  // must replay exactly. Covered implicitly by the fork ≡ replay test, but
  // this isolates the RNG: fork twice from one snapshot and compare forks.
  Machine builder(snap_config());
  workload::CpuBurnFleet fleet(2, 2.0);
  fleet.deploy(builder);
  builder.run_for(sim::from_sec(5));
  const MachineSnapshot snap = builder.snapshot();

  auto run_fork = [&](sim::SimTime extra) {
    Machine m(snap_config());
    workload::CpuBurnFleet f(2, 2.0);
    f.deploy(m);
    m.restore(snap);
    m.run_for(extra);
    return m.thermal_network().save_state();
  };
  const auto a = run_fork(sim::from_sec(7));
  const auto b = run_fork(sim::from_sec(7));
  for (std::size_t i = 0; i < a.temps.size(); ++i) {
    EXPECT_EQ(a.temps[i], b.temps[i]);
  }
}

/// Work / timed-sleep / exit loop drawn from the thread's own RNG stream; its
/// burst count is its snapshot state. On a 0.5 ms grid, threads that start
/// together keep finishing and waking together, so events tie on the
/// timestamp and their order becomes observable.
class RandomLoop final : public ThreadBehavior {
 public:
  RandomLoop(std::uint64_t max_bursts, bool on_grid)
      : max_bursts_(max_bursts), on_grid_(on_grid) {}
  Burst next_burst(sim::SimTime, sim::Rng& rng) override {
    const double work = on_grid_ ? 0.0005 * static_cast<double>(
                                                rng.uniform_int(1, 6))
                                 : rng.uniform(0.0002, 0.006);
    return {work, rng.uniform(0.5, 1.0)};
  }
  BurstOutcome on_burst_complete(sim::SimTime, sim::Rng& rng) override {
    if (++bursts_ >= max_bursts_) return BurstOutcome::Exit();
    if (rng.bernoulli(0.3)) return BurstOutcome::Continue();
    return BurstOutcome::SleepFor(on_grid_
                                      ? sim::from_us(500 * rng.uniform_int(1, 8))
                                      : sim::from_us(rng.uniform_int(50, 8000)));
  }
  bool save_state(std::vector<double>& out) const override {
    out.push_back(static_cast<double>(bursts_));
    return true;
  }
  void load_state(const std::vector<double>& in) override {
    bursts_ = static_cast<std::uint64_t>(in.at(0));
  }

 private:
  std::uint64_t max_bursts_;
  bool on_grid_;
  std::uint64_t bursts_ = 0;
};

/// Injects a fixed idle quantum on every Nth dispatch of a user thread.
class EveryNthDispatch final : public InjectionHook {
 public:
  EveryNthDispatch(std::uint64_t n, sim::SimTime quantum)
      : n_(n), quantum_(quantum) {}
  std::optional<sim::SimTime> before_dispatch(const Thread& t, CoreId,
                                              sim::SimTime) override {
    if (t.thread_class() == ThreadClass::kKernel) return std::nullopt;
    if (++dispatches_ % n_ != 0) return std::nullopt;
    return quantum_;
  }
  void on_injection_complete(const Thread&, CoreId, sim::SimTime) override {}

 private:
  std::uint64_t n_;
  sim::SimTime quantum_;
  std::uint64_t dispatches_ = 0;
};

TEST(MachineSnapshotTest, SeededForkMatchesReplayAcrossTimerKinds) {
  // Generated fork ≡ replay: per seed, draw a machine shape and a workload
  // and run it under every-Nth-dispatch injection. At each of a few fork
  // points, detach the hook and snapshot (injection timers still pending),
  // restore into a fresh machine, hand each machine a copy of the hook and
  // run both to the next point: the fork must match the machine that kept
  // running bit for bit. Some points stop inside a C-state transition or an
  // injected quantum so every timer kind is captured somewhere.
  constexpr int kSeeds = 200;
  constexpr int kForkPoints = 4;
  std::array<bool, 9> kind_seen{};
  for (int seed = 0; seed < kSeeds && !HasFailure(); ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    sim::Rng g(static_cast<std::uint64_t>(seed) + 1);
    MachineConfig cfg = snap_config();
    cfg.seed = g.next_u64();
    cfg.smt_enabled = g.bernoulli(0.4);
    cfg.smt_co_schedule_injection = cfg.smt_enabled && g.bernoulli(0.5);
    cfg.injection_suspends_thread = g.bernoulli(0.5);
    cfg.hw_thermal_throttle = g.bernoulli(0.7);
    cfg.kernel_preempts_injection = g.bernoulli(0.3);
    std::vector<std::uint64_t> max_bursts(g.uniform_int(1, 9));
    std::vector<int> nice(max_bursts.size());
    const bool on_grid = g.bernoulli(0.5);
    for (std::size_t i = 0; i < max_bursts.size(); ++i) {
      max_bursts[i] = static_cast<std::uint64_t>(g.uniform_int(20, 400));
      nice[i] = static_cast<int>(g.uniform_int(-5, 10));
    }
    const auto deploy = [&](Machine& m) {
      for (std::size_t i = 0; i < max_bursts.size(); ++i) {
        m.create_thread("t" + std::to_string(i),
                        i == 0 ? ThreadClass::kKernel : ThreadClass::kUser,
                        nice[i],
                        std::make_unique<RandomLoop>(max_bursts[i], on_grid));
      }
    };
    EveryNthDispatch hook(static_cast<std::uint64_t>(g.uniform_int(2, 5)),
                          sim::from_us(g.uniform_int(500, 20000)));

    Machine replay(cfg);
    deploy(replay);
    replay.set_injection_hook(&hook);
    for (int point = 0; point < kForkPoints && !HasFailure(); ++point) {
      const sim::SimTime fork_by =
          replay.now() + g.uniform_int(sim::from_ms(2), sim::from_ms(100));
      const auto stop_mode = g.uniform_int(0, 3);
      if (stop_mode == 0) {
        replay.run_until(fork_by);
      } else {
        const auto stop_here = [stop_mode](const Core& c) {
          if (stop_mode == 1) return c.activity == CoreActivity::kIdleEntering;
          if (stop_mode == 2) return c.activity == CoreActivity::kIdleExiting;
          return c.injected_idle;
        };
        replay.run_until_condition(
            [&] {
              for (CoreId i = 0; i < replay.num_cores(); ++i) {
                if (stop_here(replay.core(i))) return true;
              }
              return false;
            },
            fork_by);
      }
      replay.set_injection_hook(nullptr);
      const MachineSnapshot snap = replay.snapshot();
      for (const auto& t : snap.timers) {
        kind_seen.at(static_cast<std::size_t>(t.kind)) = true;
      }

      Machine forked(cfg);
      deploy(forked);
      forked.restore(snap);
      EveryNthDispatch fork_hook = hook;
      replay.set_injection_hook(&hook);
      forked.set_injection_hook(&fork_hook);
      const sim::SimTime end =
          replay.now() + g.uniform_int(sim::from_ms(10), sim::from_ms(100));
      replay.run_until(end);
      forked.run_until(end);
      SCOPED_TRACE("fork point " + std::to_string(point));
      expect_machines_bit_identical(replay, forked);
    }
  }
  for (std::size_t k = 0; k < kind_seen.size(); ++k) {
    EXPECT_TRUE(kind_seen[k]) << "TimerKind " << k << " never captured";
  }
}

TEST(MachineSnapshotTest, MeterAttachedRefusesSnapshot) {
  MachineConfig cfg;
  cfg.enable_meter = true;
  Machine m(cfg);
  workload::CpuBurnFleet fleet(2);
  fleet.deploy(m);
  m.run_for(sim::from_sec(1));
  EXPECT_THROW((void)m.snapshot(), std::runtime_error);
}

TEST(MachineSnapshotTest, UleSchedulerRefusesSnapshot) {
  MachineConfig cfg = snap_config();
  cfg.scheduler_kind = SchedulerKind::kUle;
  Machine m(cfg);
  workload::CpuBurnFleet fleet(2);
  fleet.deploy(m);
  m.run_for(sim::from_sec(1));
  EXPECT_THROW((void)m.snapshot(), std::runtime_error);
}

TEST(MachineSnapshotTest, UntrackedCallAtEventRefusesSnapshot) {
  // Workload driver timers scheduled via call_at are not in the machine's
  // event inventory; snapshotting with one pending must throw rather than
  // silently dropping it from the fork.
  Machine m(snap_config());
  workload::CpuBurnFleet fleet(2);
  fleet.deploy(m);
  m.call_at(sim::from_sec(60), [](sim::SimTime) {});
  m.run_for(sim::from_sec(1));
  EXPECT_THROW((void)m.snapshot(), std::runtime_error);
}

TEST(MachineSnapshotTest, RestoreRejectsMismatchedThreadCount) {
  Machine builder(snap_config());
  workload::CpuBurnFleet fleet(4);
  fleet.deploy(builder);
  builder.run_for(sim::from_sec(2));
  const MachineSnapshot snap = builder.snapshot();

  Machine wrong(snap_config());
  workload::CpuBurnFleet two(2);
  two.deploy(wrong);
  EXPECT_THROW(wrong.restore(snap), std::invalid_argument);
}

TEST(MachineSnapshotTest, RestoreRejectsOutOfRangeTimerOwner) {
  // Captured timers are re-armed by (kind, owner); an owner that names no
  // core of this machine must throw, not index past the core table.
  Machine builder(snap_config());
  workload::CpuBurnFleet fleet(2);
  fleet.deploy(builder);
  builder.run_for(sim::from_sec(1));
  MachineSnapshot snap = builder.snapshot();
  bool corrupted = false;
  for (auto& t : snap.timers) {
    if (t.kind == TimerKind::kSegmentEnd) {
      t.owner = 99;
      corrupted = true;
    }
  }
  ASSERT_TRUE(corrupted);

  Machine target(snap_config());
  workload::CpuBurnFleet same(2);
  same.deploy(target);
  EXPECT_THROW(target.restore(snap), std::out_of_range);
}

}  // namespace
}  // namespace dimetrodon::sched
