#include "core/power_cap.hpp"

#include <algorithm>

namespace dimetrodon::core {

PowerCapController::PowerCapController(sched::Machine& machine,
                                       DimetrodonController& dimetrodon,
                                       Config config)
    : machine_(machine),
      dimetrodon_(dimetrodon),
      config_(config),
      tick_callout_(machine_.add_callout(
          "power-cap tick", [this](sim::SimTime t) { tick(t); })) {
  last_energy_j_ = machine_.energy().total_joules();
  machine_.arm_callout(tick_callout_, machine_.now() + config_.sample_period);
}

void PowerCapController::tick(sim::SimTime /*now*/) {
  if (!running_) return;
  const double dt = sim::to_sec(config_.sample_period);
  const double energy = machine_.energy().total_joules();
  last_power_ = (energy - last_energy_j_) / dt;
  last_energy_j_ = energy;

  // Positive error = over budget = inject more.
  const double error = last_power_ - config_.power_cap_w;
  const double unclamped =
      config_.kp * error + config_.ki * (integral_ + error * dt);
  if ((unclamped < config_.max_probability || error < 0.0) &&
      (unclamped > 0.0 || error > 0.0)) {
    integral_ += error * dt;
  }
  probability_ = std::clamp(config_.kp * error + config_.ki * integral_, 0.0,
                            config_.max_probability);
  if (output_) {
    output_(probability_, config_.idle_quantum);
  } else {
    dimetrodon_.sys_set_global(probability_, config_.idle_quantum);
  }
  ++updates_;
  machine_.arm_callout(tick_callout_, machine_.now() + config_.sample_period);
}

}  // namespace dimetrodon::core
