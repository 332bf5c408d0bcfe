#include "core/adaptive.hpp"

#include <algorithm>

namespace dimetrodon::core {

AdaptiveController::AdaptiveController(sched::Machine& machine,
                                       DimetrodonController& dimetrodon,
                                       Config config)
    : machine_(machine),
      dimetrodon_(dimetrodon),
      config_(config),
      tick_callout_(machine_.add_callout(
          "adaptive tick", [this](sim::SimTime t) { tick(t); })) {
  machine_.arm_callout(tick_callout_, machine_.now() + config_.sample_period);
}

void AdaptiveController::tick(sim::SimTime /*now*/) {
  if (!running_) return;
  const double temp = machine_.mean_sensor_temp();
  // Positive error = too hot = inject more.
  const double error = temp - config_.target_temp_c;
  last_error_ = error;
  const double dt = sim::to_sec(config_.sample_period);
  const double unclamped =
      config_.kp * error + config_.ki * (integral_ + error * dt);
  // Anti-windup: only integrate when the actuator is not saturated in the
  // direction of the error.
  if ((unclamped < config_.max_probability || error < 0.0) &&
      (unclamped > 0.0 || error > 0.0)) {
    integral_ += error * dt;
  }
  probability_ = std::clamp(config_.kp * error + config_.ki * integral_, 0.0,
                            config_.max_probability);
  dimetrodon_.sys_set_global(probability_, config_.idle_quantum);
  ++updates_;
  machine_.arm_callout(tick_callout_, machine_.now() + config_.sample_period);
}

}  // namespace dimetrodon::core
