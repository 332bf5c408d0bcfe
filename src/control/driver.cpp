#include "control/driver.hpp"

#include <cmath>
#include <stdexcept>

namespace dimetrodon::control {

namespace {

// Validate before claiming: a constructor that throws after claiming would
// leave the kGovernor channel permanently held on its arbiter.
InjectionArbiter::Port& claim_governor_channel(InjectionArbiter& arbiter,
                                               const GovernorSpec& spec) {
  if (!spec.enabled()) {
    throw std::invalid_argument("GovernorDriver needs an enabled GovernorSpec");
  }
  if (spec.sample_period <= 0) {
    throw std::invalid_argument("governor sample period must be positive");
  }
  return arbiter.claim(InjectionArbiter::Channel::kGovernor,
                       governor_label(spec));
}

}  // namespace

GovernorDriver::GovernorDriver(sched::Machine& machine,
                               InjectionArbiter& arbiter, GovernorSpec spec)
    : machine_(machine),
      port_(claim_governor_channel(arbiter, spec)),
      spec_(spec),
      governor_(make_governor(spec)),
      stability_(governor_reference_c(spec), spec.stability_band_c),
      sample_callout_(machine_.add_callout(
          "governor sample", [this](sim::SimTime t) { sample(t); })) {
  machine_.arm_callout(sample_callout_, machine_.now() + spec_.sample_period);
}

void GovernorDriver::retune(const GovernorSpec& spec) {
  if (!spec.enabled()) {
    throw std::invalid_argument("retune needs an enabled GovernorSpec");
  }
  if (spec.sample_period <= 0) {
    throw std::invalid_argument("governor sample period must be positive");
  }
  spec_ = spec;
  governor_ = make_governor(spec);
  stability_ = StabilityTracker(governor_reference_c(spec),
                                spec.stability_band_c);
  // The fresh controller holds no trip latch; realign the edge detector so
  // its first trip is counted as a trip, not swallowed as "still tripped".
  was_tripped_ = false;
}

void GovernorDriver::sample(sim::SimTime now) {
  if (!running_) return;

  // Make "now" an interaction point so the quantized sensors reflect the
  // present instant; under the lazy clock this is a closed-form fast-forward,
  // not per-substep integration.
  machine_.sync_thermal_now();

  SensorFrame frame;
  frame.at = now;
  frame.dt_s = has_last_ ? sim::to_sec(now - last_sample_at_) : 0.0;
  const std::size_t phys_cores = machine_.num_physical_cores();
  const std::size_t stride = machine_.config().smt_enabled ? 2 : 1;
  frame.temps_c.reserve(phys_cores);
  double sum = 0.0;
  for (std::size_t p = 0; p < phys_cores; ++p) {
    const double t = machine_.sensor(p * stride).read();
    frame.temps_c.push_back(t);
    sum += t;
    if (p == 0 || t > frame.max_c) {
      frame.max_c = t;
      frame.hottest_core = p;
    }
  }
  frame.mean_c = phys_cores > 0 ? sum / static_cast<double>(phys_cores) : 0.0;

  const double duty = governor_->update(frame);
  const bool tripped = governor_->tripped();
  auto& tracer = machine_.tracer();
  const auto phys = static_cast<std::uint32_t>(frame.hottest_core);

  ++stats_.samples;
  tracer.governor_sample(now, phys, frame.max_c, duty);

  if (tripped != was_tripped_) {
    if (tripped) {
      ++stats_.trips;
    } else {
      ++stats_.releases;
    }
    tracer.governor_trip(now, phys, tripped, frame.max_c);
    was_tripped_ = tripped;
  }

  // Publishing only on change keeps the arbiter write count meaningful; a
  // never-engaged governor channel resolves identically to requesting 0.
  if (duty != last_duty_) {
    const double delta = duty - last_duty_;
    const bool reversal = last_duty_delta_ != 0.0 &&
                          std::signbit(delta) != std::signbit(last_duty_delta_);
    ++stats_.duty_changes;
    if (reversal) ++stats_.duty_reversals;
    tracer.duty_change(
        now, static_cast<std::uint32_t>(InjectionArbiter::Channel::kGovernor),
        duty, reversal);
    last_duty_delta_ = delta;
    last_duty_ = duty;
    port_.request(duty, spec_.quantum);
  }

  stability_.on_sample(now, frame.max_c, duty);
  has_last_ = true;
  last_sample_at_ = now;
  machine_.arm_callout(sample_callout_, machine_.now() + spec_.sample_period);
}

ControlStack make_governed_stack(sched::Machine& machine,
                                 const GovernorSpec& spec, double preventive_p,
                                 sim::SimTime preventive_quantum) {
  ControlStack stack;
  stack.controller = std::make_shared<core::DimetrodonController>(machine);
  stack.arbiter = std::make_unique<InjectionArbiter>(*stack.controller);
  if (preventive_p > 0.0) {
    stack.preventive_port =
        &stack.arbiter->claim(InjectionArbiter::Channel::kPreventive,
                              "preventive");
    stack.preventive_port->request(preventive_p, preventive_quantum);
  }
  stack.driver =
      std::make_unique<GovernorDriver>(machine, *stack.arbiter, spec);
  return stack;
}

}  // namespace dimetrodon::control
