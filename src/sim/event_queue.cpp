#include "sim/event_queue.hpp"

#include <cassert>

namespace dimetrodon::sim {

bool EventQueue::earlier(const Key& a, const Key& b) {
  return a.at != b.at ? a.at < b.at : a.seq < b.seq;
}

TimerId EventQueue::add() {
  pos_.push_back(kDisarmed);
  return static_cast<TimerId>(pos_.size() - 1);
}

void EventQueue::place(std::uint32_t pos, const Key& k) {
  heap_[pos] = k;
  pos_[k.id] = pos;
}

void EventQueue::sift_up(std::uint32_t pos, Key k) {
  while (pos > 0) {
    const std::uint32_t parent = (pos - 1) / 2;
    if (!earlier(k, heap_[parent])) break;
    place(pos, heap_[parent]);
    pos = parent;
  }
  place(pos, k);
}

void EventQueue::sift_down(std::uint32_t pos, Key k) {
  const std::size_t n = heap_.size();
  for (std::size_t child; (child = 2 * std::size_t{pos} + 1) < n;) {
    if (child + 1 < n && earlier(heap_[child + 1], heap_[child])) ++child;
    if (!earlier(heap_[child], k)) break;
    place(pos, heap_[child]);
    pos = static_cast<std::uint32_t>(child);
  }
  place(pos, k);
}

void EventQueue::settle(std::uint32_t pos, const Key& k) {
  if (pos > 0 && earlier(k, heap_[(pos - 1) / 2])) {
    sift_up(pos, k);
  } else {
    sift_down(pos, k);
  }
}

void EventQueue::arm(TimerId id, SimTime at, std::uint32_t tag) {
  assert(at >= 0 && id < pos_.size());
  const Key k{at, next_seq_++, id, tag};
  if (armed(id)) {
    settle(pos_[id], k);
  } else {
    heap_.emplace_back();
    sift_up(static_cast<std::uint32_t>(heap_.size() - 1), k);
  }
}

void EventQueue::remove(std::uint32_t pos) {
  pos_[heap_[pos].id] = kDisarmed;
  const Key last = heap_.back();
  heap_.pop_back();
  // The last key fills the hole; it may belong above or below it.
  if (pos < heap_.size()) settle(pos, last);
}

bool EventQueue::disarm(TimerId id) {
  if (!armed(id)) return false;
  remove(pos_[id]);
  return true;
}

Event EventQueue::pop() {
  assert(!empty());
  const Key& head = heap_.front();
  const Event e{head.at, head.id, head.tag};
  remove(0);
  return e;
}

void EventQueue::clear() {
  for (const Key& k : heap_) pos_[k.id] = kDisarmed;
  heap_.clear();
}

}  // namespace dimetrodon::sim
