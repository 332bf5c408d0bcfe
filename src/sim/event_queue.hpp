#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/time.hpp"

namespace dimetrodon::sim {

namespace detail {

inline constexpr std::uint32_t kNoSlot = 0xffffffffu;

/// One arena slot. A slot holds one pending event's callback and is reused by
/// many events over its lifetime; `gen` disambiguates: a handle captures
/// (slot, gen) at schedule time and is inert once the generation moves on
/// (the event fired, was cancelled or was cleared). `pos` is the index of the
/// event's key in the heap while it is pending.
struct ControlSlot {
  std::function<void(SimTime)> fn;
  std::uint64_t gen = 0;
  std::uint32_t pos = kNoSlot;
  std::uint32_t next_free = kNoSlot;
};

/// Heap key of one pending event: ordered by (at, seq), a strict total order.
struct HeapKey {
  SimTime at;
  std::uint64_t seq;
  std::uint32_t slot;
};

/// Storage shared by an EventQueue and its handles, held by shared_ptr so
/// handles may outlive the queue. `heap` is a binary min-heap holding exactly
/// the pending events; each key's slot records its heap index, so removing
/// any event (the head when it fires, any entry when it is cancelled) is
/// O(log n). Freed slots go on an intrusive free list, so steady-state timer
/// churn allocates nothing.
struct EventArena {
  std::vector<ControlSlot> slots;
  std::vector<HeapKey> heap;
  std::uint32_t free_head = kNoSlot;

  bool pending(std::uint32_t slot, std::uint64_t gen) const {
    return slots[slot].gen == gen;
  }
  const HeapKey& key(std::uint32_t slot) const { return heap[slots[slot].pos]; }

  /// Take a slot for `fn` and insert its key; returns the slot.
  std::uint32_t insert(SimTime at, std::uint64_t seq,
                       std::function<void(SimTime)>&& fn);
  /// Remove the key at heap index `pos`, free its slot (bumping gen) and
  /// return the callback, which the caller runs or drops.
  std::function<void(SimTime)> remove(std::uint32_t pos);

 private:
  void place(std::uint32_t pos, const HeapKey& k);
  void sift_up(std::uint32_t pos, HeapKey k);
  void sift_down(std::uint32_t pos, HeapKey k);
};

}  // namespace detail

/// Handle to a scheduled event. cancel() removes the event from its queue at
/// once (O(log n)); handles are cheap to copy and may outlive the queue.
class EventHandle {
 public:
  EventHandle() = default;

  /// Cancel the event. Safe to call multiple times or on a default-constructed
  /// (empty) handle; returns true if the event was pending and is now removed.
  bool cancel();

  /// True if this handle refers to an event that has neither fired nor been
  /// cancelled.
  bool active() const;

  /// Scheduled time of a pending event; kTimeInfinity if not active().
  SimTime time() const;

  /// Tie-break rank of a pending event: among events at equal time, lower seq
  /// fires first. 0 if not active(). The machine snapshot layer sorts by this
  /// when re-arming so restored ties fire in the captured order.
  std::uint64_t seq() const;

 private:
  friend class EventQueue;
  EventHandle(std::shared_ptr<detail::EventArena> arena, std::uint32_t slot,
              std::uint64_t gen)
      : arena_(std::move(arena)), slot_(slot), gen_(gen) {}

  std::shared_ptr<detail::EventArena> arena_;
  std::uint32_t slot_ = detail::kNoSlot;
  std::uint64_t gen_ = 0;
};

/// Min-heap of timestamped callbacks. Ties break by insertion order (seq), so
/// (at, seq) totally orders events and delivery is fully deterministic. The
/// heap holds exactly the pending events: a cancelled event leaves nothing
/// behind.
class EventQueue {
 public:
  using Callback = std::function<void(SimTime)>;

  EventQueue() : arena_(std::make_shared<detail::EventArena>()) {}
  ~EventQueue() { clear(); }
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedule `fn` at absolute time `at`. Requires at >= 0.
  EventHandle schedule(SimTime at, Callback fn);

  /// True if no events are pending.
  bool empty() const { return arena_->heap.empty(); }

  /// Timestamp of the earliest pending event; kTimeInfinity when empty.
  SimTime next_time() const {
    return empty() ? kTimeInfinity : arena_->heap.front().at;
  }

  /// Pop and run the earliest pending event, returning its timestamp.
  /// Requires !empty().
  SimTime pop_and_run();

  /// Number of pending (non-cancelled, unfired) events.
  std::size_t size() const { return arena_->heap.size(); }

  /// Heap entries held. Cancellation removes its entry, so this always
  /// equals size(); kept for memory-bound diagnostics.
  std::size_t heap_entries() const { return arena_->heap.size(); }

  /// Drop every pending event (their handles go inert, as if cancelled).
  /// Used by snapshot restore, which re-arms the captured event set from
  /// scratch; seq numbering keeps counting up, so relative tie order of
  /// anything scheduled afterwards is unaffected.
  void clear();

 private:
  std::uint64_t next_seq_ = 0;
  std::shared_ptr<detail::EventArena> arena_;
};

}  // namespace dimetrodon::sim
