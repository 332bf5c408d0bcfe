#include "sim/event_queue.hpp"

#include <cassert>
#include <utility>

namespace dimetrodon::sim {

namespace detail {

namespace {
bool earlier(const HeapKey& a, const HeapKey& b) {
  return a.at != b.at ? a.at < b.at : a.seq < b.seq;
}
}  // namespace

void EventArena::place(std::uint32_t pos, const HeapKey& k) {
  heap[pos] = k;
  slots[k.slot].pos = pos;
}

void EventArena::sift_up(std::uint32_t pos, HeapKey k) {
  while (pos > 0) {
    const std::uint32_t parent = (pos - 1) / 2;
    if (!earlier(k, heap[parent])) break;
    place(pos, heap[parent]);
    pos = parent;
  }
  place(pos, k);
}

void EventArena::sift_down(std::uint32_t pos, HeapKey k) {
  const std::size_t n = heap.size();
  for (std::size_t child; (child = 2 * std::size_t{pos} + 1) < n;) {
    if (child + 1 < n && earlier(heap[child + 1], heap[child])) ++child;
    if (!earlier(heap[child], k)) break;
    place(pos, heap[child]);
    pos = static_cast<std::uint32_t>(child);
  }
  place(pos, k);
}

std::uint32_t EventArena::insert(SimTime at, std::uint64_t seq,
                                 std::function<void(SimTime)>&& fn) {
  std::uint32_t slot;
  if (free_head != kNoSlot) {
    slot = free_head;
    free_head = slots[slot].next_free;
  } else {
    slot = static_cast<std::uint32_t>(slots.size());
    slots.emplace_back();
  }
  slots[slot].fn = std::move(fn);
  heap.emplace_back();
  sift_up(static_cast<std::uint32_t>(heap.size() - 1), HeapKey{at, seq, slot});
  return slot;
}

std::function<void(SimTime)> EventArena::remove(std::uint32_t pos) {
  const std::uint32_t slot = heap[pos].slot;
  const HeapKey last = heap.back();
  heap.pop_back();
  if (pos < heap.size()) {
    // The last key fills the hole; it may belong above or below it.
    if (pos > 0 && earlier(last, heap[(pos - 1) / 2])) {
      sift_up(pos, last);
    } else {
      sift_down(pos, last);
    }
  }
  ControlSlot& s = slots[slot];
  ++s.gen;  // every outstanding (slot, gen) capture goes inert
  s.pos = kNoSlot;
  s.next_free = free_head;
  free_head = slot;
  return std::move(s.fn);
}

}  // namespace detail

bool EventHandle::cancel() {
  if (!active()) return false;
  // Dropped only after the arena is consistent again.
  const auto fn = arena_->remove(arena_->slots[slot_].pos);
  arena_.reset();
  return true;
}

bool EventHandle::active() const {
  return arena_ && arena_->pending(slot_, gen_);
}

SimTime EventHandle::time() const {
  return active() ? arena_->key(slot_).at : kTimeInfinity;
}

std::uint64_t EventHandle::seq() const {
  return active() ? arena_->key(slot_).seq : 0;
}

EventHandle EventQueue::schedule(SimTime at, Callback fn) {
  assert(at >= 0);
  const std::uint32_t slot = arena_->insert(at, next_seq_++, std::move(fn));
  return EventHandle(arena_, slot, arena_->slots[slot].gen);
}

SimTime EventQueue::pop_and_run() {
  assert(!empty());
  const SimTime at = arena_->heap.front().at;
  // Moved out before running: the callback may schedule or cancel events,
  // and its own handles already read inactive.
  const Callback fn = arena_->remove(0);
  fn(at);
  return at;
}

void EventQueue::clear() {
  // Removing the last key never sifts.
  while (!arena_->heap.empty()) arena_->remove(arena_->heap.size() - 1);
}

}  // namespace dimetrodon::sim
