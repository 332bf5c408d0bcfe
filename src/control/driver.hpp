#pragma once

#include <cstdint>
#include <memory>

#include "control/arbiter.hpp"
#include "control/governor.hpp"
#include "control/stability.hpp"
#include "sched/machine.hpp"

namespace dimetrodon::control {

/// Runs one Governor against one machine: every `spec.sample_period` the
/// driver makes "now" a thermal interaction point (Machine::sync_thermal_now —
/// a governor sample is NOT a new periodic substep, so the lazy thermal
/// clock's O(log k) fast-forward is preserved), reads the *quantized* per-core
/// sensors into a SensorFrame, feeds the governor, and publishes the returned
/// duty through its InjectionArbiter port. Trip edges, duty changes and duty
/// reversals are probed into the machine's tracer; the full (time, temp,
/// duty) series feeds a StabilityTracker for the derived oscillation /
/// overshoot / settling metrics.
///
/// The driver owns no RNG and reads no exact temperatures: a governed run is
/// a deterministic function of (machine config, workload, GovernorSpec).
class GovernorDriver {
 public:
  struct Stats {
    std::uint64_t samples = 0;
    std::uint64_t trips = 0;
    std::uint64_t releases = 0;
    std::uint64_t duty_changes = 0;
    std::uint64_t duty_reversals = 0;
  };

  /// Claims the arbiter's kGovernor channel and schedules the first sample
  /// one period from now. Throws std::invalid_argument on a kNone spec or a
  /// non-positive sample period; must outlive the run (or be stop()ed).
  GovernorDriver(sched::Machine& machine, InjectionArbiter& arbiter,
                 GovernorSpec spec);

  GovernorDriver(const GovernorDriver&) = delete;
  GovernorDriver& operator=(const GovernorDriver&) = delete;

  void stop() { running_ = false; }

  /// Swap the governor mid-run (a rolling config update): the new spec's
  /// controller starts from reset state, the kGovernor channel claim and the
  /// sampling cadence survive (the already-armed sample fires at its old
  /// time; later samples use the new period), and the stability tracker
  /// restarts so its metrics describe the post-retune loop. The channel's
  /// last published duty stays in force until the new governor's first
  /// sample publishes a change. Throws std::invalid_argument on a kNone
  /// spec or non-positive sample period — a retune can change the loop, not
  /// remove it.
  void retune(const GovernorSpec& spec);

  const Governor& governor() const { return *governor_; }
  const GovernorSpec& spec() const { return spec_; }
  const Stats& stats() const { return stats_; }
  double last_duty() const { return last_duty_; }

  const StabilityTracker& stability() const { return stability_; }
  StabilityMetrics stability_metrics() const { return stability_.metrics(); }

 private:
  void schedule_sample();
  void sample(sim::SimTime now);

  sched::Machine& machine_;
  InjectionArbiter::Port& port_;
  GovernorSpec spec_;
  std::unique_ptr<Governor> governor_;
  StabilityTracker stability_;
  Stats stats_;
  bool running_ = true;
  bool was_tripped_ = false;
  bool has_last_ = false;
  sim::SimTime last_sample_at_ = 0;
  double last_duty_ = 0.0;
  double last_duty_delta_ = 0.0;
};

/// The injection control stack on one machine: a Dimetrodon controller, and
/// for a governed machine the InjectionArbiter in front of it, an optional
/// open-loop floor on the arbiter's preventive channel, and a GovernorDriver
/// on its governor channel. Members are declared in dependency order, so the
/// driver is destroyed first and the controller last. An open-loop machine
/// sets only `controller`.
struct ControlStack {
  std::shared_ptr<core::DimetrodonController> controller;
  std::unique_ptr<InjectionArbiter> arbiter;
  std::unique_ptr<GovernorDriver> driver;
  /// Preventive-channel port, borrowed from `arbiter`; null until claimed.
  InjectionArbiter::Port* preventive_port = nullptr;
};

/// Builds the governed stack on `machine`: controller, arbiter, then (only
/// when `preventive_p > 0`) the preventive claim at that duty, then the
/// driver for `spec`. This is the one place the stack is wired.
ControlStack make_governed_stack(sched::Machine& machine,
                                 const GovernorSpec& spec, double preventive_p,
                                 sim::SimTime preventive_quantum);

}  // namespace dimetrodon::control
