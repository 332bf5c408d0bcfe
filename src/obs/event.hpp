#pragma once

#include <cstdint>
#include <string_view>

#include "sim/time.hpp"

namespace dimetrodon::obs {

/// What happened. One enumerator per observable state change the simulator
/// makes; each carries a fixed-size payload in TraceEvent so events can live
/// in a binary ring buffer with no allocation on the hot path.
enum class EventKind : std::uint8_t {
  kSchedSwitch,      // a core began executing a thread
  kInjectionBegin,   // a Dimetrodon idle quantum displaced a thread
  kInjectionEnd,     // that quantum finished (arg = actual duration, ns)
  kCStateChange,     // a core moved along the C0 <-> C1E transition path
  kDvfsChange,       // a core's DVFS operating point was set
  kProchotThrottle,  // the hardware thermal monitor engaged / released
  kSensorSample,     // periodic die-temperature reading (trace-only)
  kMeterSample,      // the clamp power meter took a sample
  kRequestComplete,  // a workload request finished (value = latency, s)
  kThermalStats,     // thermal-engine work counter sample (trace-only)
  kRequestRouted,    // cluster: a request was dispatched to a node
  kNodeDrain,        // cluster: a node left / rejoined the routable set
  kGovernorSample,   // a closed-loop governor sampled its sensors
  kGovernorTrip,     // a threshold governor engaged / released
  kDutyChange,       // the resolved injection duty cycle changed
  kFleetSample,      // cluster: one batched fleet-wide telemetry sweep
  kRequestShed,      // cluster: an arrival found no routable node and was shed
  kNodeJoin,         // cluster: a node joined the fleet mid-run
  kScenarioDirective,// scenario: a script directive was applied to the fleet
};

constexpr std::string_view event_kind_name(EventKind k) {
  switch (k) {
    case EventKind::kSchedSwitch:     return "sched_switch";
    case EventKind::kInjectionBegin:  return "injection_begin";
    case EventKind::kInjectionEnd:    return "injection_end";
    case EventKind::kCStateChange:    return "cstate_change";
    case EventKind::kDvfsChange:      return "dvfs_change";
    case EventKind::kProchotThrottle: return "prochot_throttle";
    case EventKind::kSensorSample:    return "sensor_sample";
    case EventKind::kMeterSample:     return "meter_sample";
    case EventKind::kRequestComplete: return "request_complete";
    case EventKind::kThermalStats:    return "thermal_stats";
    case EventKind::kRequestRouted:   return "request_routed";
    case EventKind::kNodeDrain:       return "node_drain";
    case EventKind::kGovernorSample:  return "governor_sample";
    case EventKind::kGovernorTrip:    return "governor_trip";
    case EventKind::kDutyChange:      return "duty_change";
    case EventKind::kFleetSample:     return "fleet_sample";
    case EventKind::kRequestShed:     return "request_shed";
    case EventKind::kNodeJoin:        return "node_join";
    case EventKind::kScenarioDirective: return "scenario_directive";
  }
  return "unknown";
}

/// Which thermal-engine counter a kThermalStats event samples (in `phase`).
/// Emitted by the trace-time sensor sampler only — sink-gated and read-only,
/// like every other probe.
enum class ThermalStatKind : std::uint8_t {
  kSubsteps = 0,          // substeps integrated so far
  kFastForwardSteps = 1,  // substeps in closed-form k ≥ 2 runs
  kFactorizations = 2,    // modal decompositions (one per topology)
  kMatvecs = 3,           // dense matrix-vector products
};

constexpr std::string_view thermal_stat_name(ThermalStatKind k) {
  switch (k) {
    case ThermalStatKind::kSubsteps:         return "thermal substeps";
    case ThermalStatKind::kFastForwardSteps: return "thermal ff steps";
    case ThermalStatKind::kFactorizations:   return "thermal factorizations";
    case ThermalStatKind::kMatvecs:          return "thermal matvecs";
  }
  return "thermal ?";
}

/// Phase of a kCStateChange along the idle path. Exporters render the span
/// kEnterBegin..kExitDone as one idle residency on the core's state track.
enum class CStatePhase : std::uint8_t {
  kEnterBegin = 0,  // core committed to idling; entry transition starts
  kEnterDone = 1,   // settled in the idle C-state
  kExitBegin = 2,   // wakeup started; exit transition
  kExitDone = 3,    // back in C0, about to dispatch
};

/// One trace record: 32 bytes, trivially copyable, meaning determined by
/// `kind`. Field use by kind:
///   kSchedSwitch:      core, tid, phase = 1 if a context switch was charged
///   kInjectionBegin:   core, tid (victim), arg = requested quantum (ns)
///   kInjectionEnd:     core, tid (victim), arg = actual idle duration (ns)
///   kCStateChange:     core, phase = CStatePhase, arg = power::CState
///   kDvfsChange:       core, arg = ladder level, value = frequency (GHz)
///   kProchotThrottle:  core = physical core, arg = 1 engage / 0 release,
///                      value = die temperature (C)
///   kSensorSample:     core = physical core, value = die temperature (C)
///   kMeterSample:      value = measured package power (W)
///   kRequestComplete:  tid = workload-defined id, value = latency (s)
///   kThermalStats:     phase = ThermalStatKind, arg = cumulative count
///   kRequestRouted:    core = node index, tid = request id (cluster scope),
///                      arg = trace size class, value = trace affinity key
///                      (both 0 for Poisson-source arrivals)
///   kNodeDrain:        core = node index, arg = 1 drain / 0 rejoin,
///                      value = hottest die temperature (C)
///   kGovernorSample:   core = hottest physical core, arg = requested duty
///                      in ppm, value = hottest quantized temperature (C)
///   kGovernorTrip:     core = hottest physical core, arg = 1 trip /
///                      0 release, value = quantized temperature (C)
///   kDutyChange:       arg = winning arbiter channel, value = new duty p
///   kRequestShed:      tid = request id (no routable node existed)
///   kNodeJoin:         core = node index, arg = 1 warm (snapshot fork) /
///                      0 cold, value = warmup span (s)
///   kScenarioDirective: phase = directive kind, core = target node (or
///                      0xffff for fleet-wide), arg = directive index
struct TraceEvent {
  sim::SimTime at = 0;
  EventKind kind = EventKind::kSchedSwitch;
  std::uint8_t phase = 0;
  std::uint16_t core = 0;
  std::uint32_t tid = 0xffffffff;
  std::uint64_t arg = 0;
  double value = 0.0;
};

static_assert(sizeof(TraceEvent) == 32, "TraceEvent must stay ring-friendly");

}  // namespace dimetrodon::obs
