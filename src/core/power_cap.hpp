#pragma once

#include <functional>

#include "core/controller.hpp"
#include "sched/machine.hpp"

namespace dimetrodon::core {

/// Power capping via forced idleness (Gandhi et al., cited in §4; Google
/// later landed the same mechanism in Linux as idle injection): a PI loop on
/// the injection probability holds average package power at a budget. The
/// paper notes the two problems share a mechanism — "rearchitecting the
/// power-capping mechanism to use shorter idle quanta would provide
/// thermally-beneficial side-effects" — which this controller realizes by
/// defaulting to short quanta.
class PowerCapController {
 public:
  struct Config {
    double power_cap_w = 50.0;
    sim::SimTime idle_quantum = sim::from_ms(5);
    sim::SimTime sample_period = sim::from_ms(250);
    double kp = 0.01;  // p per watt
    double ki = 0.02;  // p per (watt*second)
    double max_probability = 0.95;
  };

  /// Starts the control loop immediately; must outlive the run.
  PowerCapController(sched::Machine& machine, DimetrodonController& dimetrodon,
                     Config config);

  void stop() { running_ = false; }

  /// Redirect the loop's output. By default each tick writes straight to
  /// DimetrodonController::sys_set_global; when another duty-cycle writer
  /// coexists (a closed-loop governor), route through a
  /// control::InjectionArbiter port instead so the two never race on the
  /// global duty — see src/control/arbiter.hpp.
  using Output = std::function<void(double probability, sim::SimTime quantum)>;
  void set_output(Output output) { output_ = std::move(output); }

  double current_probability() const { return probability_; }
  /// Average power observed over the last completed control period.
  double last_observed_power_w() const { return last_power_; }
  std::uint64_t updates() const { return updates_; }

 private:
  void tick(sim::SimTime now);

  sched::Machine& machine_;
  DimetrodonController& dimetrodon_;
  Config config_;
  sched::Machine::CalloutId tick_callout_;
  Output output_;  // empty = write sys_set_global directly
  bool running_ = true;
  double probability_ = 0.0;
  double integral_ = 0.0;
  double last_power_ = 0.0;
  double last_energy_j_ = 0.0;
  std::uint64_t updates_ = 0;
};

}  // namespace dimetrodon::core
