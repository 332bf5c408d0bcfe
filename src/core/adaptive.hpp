#pragma once

#include "core/controller.hpp"
#include "sched/machine.hpp"
#include "sim/time.hpp"

namespace dimetrodon::core {

/// Closed-loop extension of the paper's static policies: periodically read
/// the (quantized) core temperature sensors and adjust the global injection
/// probability to hold a target temperature — the "adjusted online according
/// to the thermal profile and performance constraints" mode the paper
/// sketches in §2. A PI controller on p with anti-windup; L stays fixed
/// (short quanta are the efficient regime, §3.4).
class AdaptiveController {
 public:
  struct Config {
    double target_temp_c = 50.0;
    sim::SimTime idle_quantum = sim::from_ms(5);
    sim::SimTime sample_period = sim::from_ms(500);
    double kp = 0.03;           // proportional gain, p per °C
    double ki = 0.01;           // integral gain, p per (°C·s)
    double max_probability = 0.95;
  };

  /// Starts the periodic control loop immediately. The controller must
  /// outlive the machine run it supervises.
  AdaptiveController(sched::Machine& machine, DimetrodonController& dimetrodon,
                     Config config);

  /// Stop adjusting (the last setpoint remains in force).
  void stop() { running_ = false; }

  double current_probability() const { return probability_; }
  double last_error_c() const { return last_error_; }
  std::uint64_t updates() const { return updates_; }

 private:
  void tick(sim::SimTime now);

  sched::Machine& machine_;
  DimetrodonController& dimetrodon_;
  Config config_;
  sched::Machine::CalloutId tick_callout_;
  bool running_ = true;
  double probability_ = 0.0;
  double integral_ = 0.0;
  double last_error_ = 0.0;
  std::uint64_t updates_ = 0;
};

}  // namespace dimetrodon::core
