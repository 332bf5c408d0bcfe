#pragma once

#include <cstdint>

#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace dimetrodon::sim {

/// Discrete-event simulation clock: a time, an event queue of timers and the
/// count of events executed. The owner of the timers (sched::Machine) drives
/// it, handing each popped event to its own dispatcher.
class Simulator {
 public:
  SimTime now() const { return now_; }

  /// Pop events in (at, seq) order while the next is due by `deadline`,
  /// moving the clock to each event's time BEFORE `fire(event)` runs, so
  /// now() is correct inside it (dispatchers routinely arm relative
  /// follow-ups). Events at exactly `deadline` run. The clock is left at
  /// max(now(), deadline): it never runs backwards.
  template <class Fire>
  void run_until(SimTime deadline, Fire&& fire) {
    while (!queue_.empty() && queue_.next_time() <= deadline) fire(pop());
    if (now_ < deadline) now_ = deadline;
  }

  /// Run a single event if one is pending; returns false when none is.
  template <class Fire>
  bool step(Fire&& fire) {
    if (queue_.empty()) return false;
    fire(pop());
    return true;
  }

  /// Total events executed (diagnostics).
  std::uint64_t events_executed() const { return events_executed_; }

  /// Snapshot-restore support: disarm every timer and pin the clock and
  /// executed-event count to captured values. The caller
  /// (sched::Machine::restore) re-arms the captured event set next.
  void reset_for_restore(SimTime now, std::uint64_t events_executed) {
    queue_.clear();
    now_ = now;
    events_executed_ = events_executed;
  }

  EventQueue& queue() { return queue_; }

 private:
  Event pop() {
    const Event e = queue_.pop();
    now_ = e.at;
    ++events_executed_;
    return e;
  }

  EventQueue queue_;
  SimTime now_ = 0;
  std::uint64_t events_executed_ = 0;
};

}  // namespace dimetrodon::sim
