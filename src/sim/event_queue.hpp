#pragma once

#include <cstdint>
#include <vector>

#include "sim/time.hpp"

namespace dimetrodon::sim {

/// Identifies one timer of an EventQueue. Owners allocate their ids once
/// (add()) and re-arm the same id for every event that timer ever carries.
using TimerId = std::uint32_t;

/// One fired event: its time, its timer and the tag it was armed with.
struct Event {
  SimTime at;
  TimerId id;
  std::uint32_t tag;
};

/// Indexed binary min-heap of timers. Each armed timer holds exactly one heap
/// key (at, seq, id, tag); keys are ordered by (at, seq), a strict total
/// order, because every arm() takes a fresh seq. Delivery is therefore fully
/// deterministic and independent of the heap's layout. Disarming a timer or
/// re-arming an armed one updates its key in place (O(log n)), so the heap
/// holds exactly the pending events. The queue stores no callbacks: the tag
/// is an opaque word the owner decodes when the event pops.
class EventQueue {
 public:
  /// Allocate a disarmed timer.
  TimerId add();

  /// Arm timer `id` to fire at `at` (>= 0) with payload `tag`, moving it if
  /// it is already armed. Always takes a fresh seq: the timer fires after
  /// every event already armed for the same time.
  void arm(TimerId id, SimTime at, std::uint32_t tag);

  /// Disarm timer `id`; returns whether it was armed. Takes no seq.
  bool disarm(TimerId id);

  bool armed(TimerId id) const { return pos_[id] != kDisarmed; }
  /// Scheduled time of an armed timer; kTimeInfinity if disarmed.
  SimTime time(TimerId id) const {
    return armed(id) ? heap_[pos_[id]].at : kTimeInfinity;
  }
  /// Tie-break rank of an armed timer: among events at equal time, lower seq
  /// fires first. 0 if disarmed. The machine snapshot layer sorts by this
  /// when re-arming so restored ties fire in the captured order.
  std::uint64_t seq(TimerId id) const {
    return armed(id) ? heap_[pos_[id]].seq : 0;
  }

  /// True if no timer is armed.
  bool empty() const { return heap_.empty(); }

  /// Timestamp of the earliest pending event; kTimeInfinity when empty.
  SimTime next_time() const {
    return empty() ? kTimeInfinity : heap_.front().at;
  }

  /// Remove and return the earliest pending event; its timer is disarmed
  /// (and free to be re-armed) by the time the caller sees it. Requires
  /// !empty().
  Event pop();

  /// Number of armed timers.
  std::size_t size() const { return heap_.size(); }

  /// Heap entries held. Disarming removes its entry, so this always equals
  /// size(); kept for memory-bound diagnostics.
  std::size_t heap_entries() const { return heap_.size(); }

  /// Disarm every timer. Used by snapshot restore, which re-arms the captured
  /// event set from scratch; seq numbering keeps counting up, so relative tie
  /// order of anything armed afterwards is unaffected.
  void clear();

 private:
  static constexpr std::uint32_t kDisarmed = 0xffffffffu;

  struct Key {
    SimTime at;
    std::uint64_t seq;
    TimerId id;
    std::uint32_t tag;
  };

  static bool earlier(const Key& a, const Key& b);  // by (at, seq)
  void place(std::uint32_t pos, const Key& k);
  // Put `k` into the hole at `pos`: up if it beats its parent, else down.
  void settle(std::uint32_t pos, const Key& k);
  void sift_up(std::uint32_t pos, Key k);
  void sift_down(std::uint32_t pos, Key k);
  void remove(std::uint32_t pos);

  std::vector<Key> heap_;
  std::vector<std::uint32_t> pos_;  // by TimerId: heap index or kDisarmed
  std::uint64_t next_seq_ = 0;
};

}  // namespace dimetrodon::sim
