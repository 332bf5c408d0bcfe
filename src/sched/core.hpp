#pragma once

#include <cstdint>

#include "power/power_model.hpp"
#include "sched/thread.hpp"
#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace dimetrodon::sched {

/// What a core is doing right now (drives the power model and accounting).
enum class CoreActivity : std::uint8_t {
  kExecuting,       // running a thread (includes context-switch overhead)
  kIdleEntering,    // transitioning into the idle C-state
  kIdle,            // resident in the idle C-state
  kIdleExiting,     // transitioning back to C0
};

/// What a pending machine-scheduled event does when it fires. Each kind has
/// one owner type and one slot per owner (FreeBSD's callout(9) idiom: the
/// timer record lives in the structure it belongs to), so the machine's whole
/// set of self-scheduled events is an inventory of (kind, owner) slots.
enum class TimerKind : std::uint8_t {
  // Core-owned (owner = CoreId).
  kSegmentEnd,       // Core::timer: execution segment / timeslice end
  kInjectedIdleEnd,  // Core::timer: injected idle quantum end (§3.1)
  kIdleEntered,      // Core::transition_timer: C-state entry complete
  kIdleExited,       // Core::transition_timer: C-state exit complete
  // Thread-owned (owner = ThreadId).
  kWake,             // timed-sleep wakeup
  kInjectionResume,  // end of an injection suspension
  // Machine-owned (owner = 0).
  kWatchdog,         // thermal watchdog advance
  kSchedcpu,         // 1 Hz scheduler recomputation
  kMonitor,          // hardware thermal monitor (PROCHOT) poll
};

/// One timer slot: the pending event (if any) and what it does.
struct Timer {
  sim::EventHandle handle;
  TimerKind kind = TimerKind::kSegmentEnd;
};

/// Per-core execution state, owned by the Machine.
struct Core {
  CoreId id = 0;

  Thread* current = nullptr;
  ThreadId last_thread = kInvalidThread;  // affinity / context-switch check

  CoreActivity activity = CoreActivity::kIdle;
  bool injected_idle = false;      // current idle is a Dimetrodon quantum
  Thread* injection_victim = nullptr;

  power::CoreOperatingPoint op;    // consumed by the power model
  std::size_t dvfs_level = 0;
  std::size_t duty_step_user = 8;  // software-requested TCC duty step

  Timer timer;             // segment end / idle-quantum end
  Timer transition_timer;  // C-state entry/exit completion

  // Execution segment bookkeeping.
  sim::SimTime segment_start = 0;      // when useful execution began
  sim::SimTime quantum_deadline = 0;   // end of the current timeslice
  double quantum_ran_seconds = 0.0;    // CPU time consumed this timeslice
  sim::SimTime idle_settled_at = 0;    // when the idle C-state was reached

  // Statistics.
  double busy_seconds = 0.0;
  double idle_seconds = 0.0;
  double injected_idle_seconds = 0.0;
  std::uint64_t dispatches = 0;
  std::uint64_t injections = 0;
  std::uint64_t context_switches = 0;

  /// Work completion rate relative to nominal: (f/f0) * effective clock
  /// duty. TCC-style duty cycling costs more throughput than its duty factor
  /// alone: every stop-clock window drains and refills the pipeline, so an
  /// overhead proportional to the gated fraction is charged (the reason
  /// p4tcc fails to reach 1:1 trade-offs in the paper's Figure 4).
  double execution_rate(double nominal_freq_ghz,
                        double modulation_overhead) const {
    const double duty_eff =
        op.clock_duty * (1.0 - modulation_overhead * (1.0 - op.clock_duty));
    return (op.freq_ghz / nominal_freq_ghz) * duty_eff;
  }

  bool is_idle() const {
    return activity == CoreActivity::kIdle ||
           activity == CoreActivity::kIdleEntering;
  }
};

}  // namespace dimetrodon::sched
