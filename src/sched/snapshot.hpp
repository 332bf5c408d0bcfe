#pragma once

#include <cstdint>
#include <vector>

#include "obs/counters.hpp"
#include "power/energy.hpp"
#include "power/power_model.hpp"
#include "sched/core.hpp"
#include "sched/thread.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"
#include "thermal/rc_network.hpp"

namespace dimetrodon::sched {

/// In-memory checkpoint of a Machine's complete dynamic state, captured by
/// Machine::snapshot() and replayed by Machine::restore() into a freshly
/// constructed machine (same MachineConfig, same workload deployed at t=0).
///
/// The contract is *fork ≡ replay*: a machine restored from a snapshot
/// evolves bit-identically — same temperatures, same work counters, same
/// request outcomes, same event interleavings — to one that simply kept
/// running past the capture point. Two things make that exact:
///
///  * every pending event the machine scheduled for itself sits in one
///    (TimerKind, owner) slot, so the event set is captured as one list of
///    (kind, owner, time, seq) entries and re-armed through the same arming
///    path in ascending seq order; events that tie on the timestamp (the
///    recurring watchdog/schedcpu/monitor trio regularly does) fire in the
///    captured order, and
///  * all stochastic state (master RNG, per-thread RNG streams, cached
///    Box-Muller halves) is copied verbatim.
///
/// Deliberately NOT captured: the thermal network's modal decomposition (a
/// pure function of the topology; rebuilt lazily with bit-identical
/// arithmetic, so only the factorization work counter can exceed the
/// replay's)
/// and anything precondition-excluded by Machine::snapshot (meter, trace
/// sink, reference stepper, an attached injection hook).
struct MachineSnapshot {
  /// One captured pending event: the slot it occupies, its scheduled time
  /// and its tie-break rank.
  struct TimerSnap {
    TimerKind kind = TimerKind::kSegmentEnd;
    std::uint32_t owner = 0;  // CoreId, ThreadId, or 0 for machine timers
    sim::SimTime at = 0;
    std::uint64_t seq = 0;
  };

  struct ThreadSnap {
    ThreadState state = ThreadState::kRunnable;
    CoreId affinity = kNoCore;
    CoreId injection_pin = kNoCore;
    bool injection_suspended = false;
    double burst_remaining = 0.0;
    double activity = 1.0;
    double cpu_seconds = 0.0;
    double work_completed = 0.0;
    std::uint64_t bursts_completed = 0;
    std::uint64_t times_scheduled = 0;
    std::uint64_t injections_suffered = 0;
    sim::SimTime created_at = 0;
    sim::SimTime finished_at = -1;
    double estcpu = 0.0;
    sim::SimTime sleep_started_at = -1;
    CoreId last_core = kNoCore;
    CoreId suspended_on = kNoCore;  // injection-resume payload
    sim::SimTime suspended_for = 0;
    sim::Rng rng{0};
    std::vector<double> behavior_state;
  };

  struct CoreSnap {
    ThreadId current = kInvalidThread;
    ThreadId last_thread = kInvalidThread;
    CoreActivity activity = CoreActivity::kIdle;
    bool injected_idle = false;
    ThreadId injection_victim = kInvalidThread;
    power::CoreOperatingPoint op;
    std::size_t dvfs_level = 0;
    std::size_t duty_step_user = 8;
    sim::SimTime segment_start = 0;
    sim::SimTime quantum_deadline = 0;
    double quantum_ran_seconds = 0.0;
    sim::SimTime idle_settled_at = 0;
    double busy_seconds = 0.0;
    double idle_seconds = 0.0;
    double injected_idle_seconds = 0.0;
    std::uint64_t dispatches = 0;
    std::uint64_t injections = 0;
    std::uint64_t context_switches = 0;
  };

  sim::SimTime now = 0;
  std::uint64_t events_executed = 0;
  sim::Rng master_rng{0};

  thermal::RcNetwork::State thermal;
  sim::SimTime last_thermal_update = 0;

  power::EnergyAccountant::State energy;
  obs::CounterRegistry counters;

  std::vector<bool> tm_active;
  std::uint64_t tm_events = 0;
  std::vector<double> window_node_joules;
  sim::SimTime window_start = 0;

  std::size_t live_threads = 0;
  std::vector<ThreadSnap> threads;
  std::vector<CoreSnap> cores;
  /// Scheduler run-queue contents in dequeue order.
  std::vector<ThreadId> run_queue;
  /// Every pending machine event, in slot-walk order (restore sorts by seq).
  std::vector<TimerSnap> timers;
};

}  // namespace dimetrodon::sched
