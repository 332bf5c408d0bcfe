#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <set>
#include <tuple>
#include <vector>

namespace dimetrodon::sim {
namespace {

TEST(EventQueueTest, StartsEmpty) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.next_time(), kTimeInfinity);
}

TEST(EventQueueTest, DeliversInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(30, [&](SimTime) { order.push_back(3); });
  q.schedule(10, [&](SimTime) { order.push_back(1); });
  q.schedule(20, [&](SimTime) { order.push_back(2); });
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, TiesBreakByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule(5, [&order, i](SimTime) { order.push_back(i); });
  }
  while (!q.empty()) q.pop_and_run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueueTest, PopReturnsTimestamp) {
  EventQueue q;
  q.schedule(77, [](SimTime t) { EXPECT_EQ(t, 77); });
  EXPECT_EQ(q.pop_and_run(), 77);
}

TEST(EventQueueTest, CancelPreventsExecution) {
  EventQueue q;
  bool ran = false;
  EventHandle h = q.schedule(5, [&](SimTime) { ran = true; });
  EXPECT_TRUE(h.active());
  EXPECT_TRUE(h.cancel());
  EXPECT_FALSE(h.active());
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(ran);
}

TEST(EventQueueTest, CancelIsIdempotent) {
  EventQueue q;
  EventHandle h = q.schedule(5, [](SimTime) {});
  EXPECT_TRUE(h.cancel());
  EXPECT_FALSE(h.cancel());
}

TEST(EventQueueTest, DefaultHandleIsInactive) {
  EventHandle h;
  EXPECT_FALSE(h.active());
  EXPECT_FALSE(h.cancel());
}

TEST(EventQueueTest, SizeTracksCancellation) {
  EventQueue q;
  EventHandle a = q.schedule(1, [](SimTime) {});
  EventHandle b = q.schedule(2, [](SimTime) {});
  EXPECT_EQ(q.size(), 2u);
  a.cancel();
  EXPECT_EQ(q.size(), 1u);
  q.pop_and_run();
  EXPECT_EQ(q.size(), 0u);
  (void)b;
}

TEST(EventQueueTest, HandleInactiveAfterFiring) {
  EventQueue q;
  EventHandle h = q.schedule(1, [](SimTime) {});
  q.pop_and_run();
  EXPECT_FALSE(h.active());
  EXPECT_FALSE(h.cancel());
}

TEST(EventQueueTest, CancelledHeadSkipped) {
  EventQueue q;
  bool first = false;
  bool second = false;
  EventHandle h = q.schedule(1, [&](SimTime) { first = true; });
  q.schedule(2, [&](SimTime) { second = true; });
  h.cancel();
  EXPECT_EQ(q.next_time(), 2);
  q.pop_and_run();
  EXPECT_FALSE(first);
  EXPECT_TRUE(second);
}

TEST(EventQueueTest, CallbackMaySchedule) {
  EventQueue q;
  int fired = 0;
  q.schedule(1, [&](SimTime) {
    ++fired;
    q.schedule(2, [&](SimTime) { ++fired; });
  });
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(fired, 2);
}

TEST(EventQueueTest, CancelHeavyChurnHoldsBoundedMemory) {
  // Timer churn: one long-lived event plus thousands of schedule/cancel
  // cycles. Cancellation removes the entry, so the heap never holds more
  // than the pending events, whatever the cancellation history.
  EventQueue q;
  bool fired = false;
  q.schedule(1'000'000, [&](SimTime) { fired = true; });
  std::size_t peak = 0;
  for (int i = 0; i < 20000; ++i) {
    EventHandle h = q.schedule(500'000 + i, [](SimTime) {});
    peak = std::max(peak, q.heap_entries());
    h.cancel();
    ASSERT_EQ(q.heap_entries(), q.size());
  }
  EXPECT_EQ(peak, 2u);
  EXPECT_EQ(q.size(), 1u);
  q.pop_and_run();
  EXPECT_TRUE(fired);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.heap_entries(), 0u);
}

TEST(EventQueueTest, CompactionPreservesDeliveryOrder) {
  // Live events scheduled in shuffled time order, two cancellations per live
  // one (a tie and a later neighbour); delivery must still be the exact
  // (time, insertion) order, and no cancelled entry may linger in the heap.
  EventQueue q;
  std::vector<int> order;
  std::vector<EventHandle> doomed;
  for (int i = 0; i < 500; ++i) {
    const SimTime t = (i * 7919) % 1009;
    q.schedule(t, [&order, i](SimTime) { order.push_back(i); });
    doomed.push_back(q.schedule(t, [](SimTime) { ADD_FAILURE(); }));
    doomed.push_back(q.schedule(t + 1, [](SimTime) { ADD_FAILURE(); }));
    doomed[doomed.size() - 2].cancel();
    doomed.back().cancel();
    ASSERT_EQ(q.heap_entries(), q.size());
  }
  EXPECT_EQ(q.size(), 500u);
  std::vector<int> expected(500);
  for (int i = 0; i < 500; ++i) expected[i] = i;
  std::stable_sort(expected.begin(), expected.end(), [](int a, int b) {
    return (a * 7919) % 1009 < (b * 7919) % 1009;
  });
  while (!q.empty()) {
    q.pop_and_run();
    ASSERT_EQ(q.heap_entries(), q.size());
  }
  EXPECT_EQ(order, expected);
}

TEST(EventQueueTest, SizeAndHandlesSurviveCompaction) {
  EventQueue q;
  std::vector<EventHandle> live;
  for (int i = 0; i < 40; ++i) {
    live.push_back(q.schedule(10 + i, [](SimTime) {}));
  }
  // A cancel storm of head-time events leaves nothing behind.
  for (int i = 0; i < 60; ++i) {
    q.schedule(5, [](SimTime) { ADD_FAILURE(); }).cancel();
  }
  q.schedule(1000, [](SimTime) {});
  EXPECT_EQ(q.size(), 41u);
  EXPECT_EQ(q.heap_entries(), q.size());
  for (const EventHandle& h : live) EXPECT_TRUE(h.active());
  EXPECT_EQ(q.next_time(), 10);
}

TEST(EventQueueTest, TimeAndSeqAccessorsTrackLiveEvents) {
  EventQueue q;
  EventHandle a = q.schedule(10, [](SimTime) {});
  EventHandle b = q.schedule(10, [](SimTime) {});
  EXPECT_EQ(a.time(), 10);
  EXPECT_EQ(b.time(), 10);
  // Same timestamp: the earlier schedule() wins the tie, and seq() exposes
  // that rank so the snapshot layer can re-arm in the captured order.
  EXPECT_LT(a.seq(), b.seq());
  a.cancel();
  EXPECT_EQ(a.time(), kTimeInfinity);
  EXPECT_EQ(a.seq(), 0u);
  q.pop_and_run();
  EXPECT_EQ(b.time(), kTimeInfinity);
}

TEST(EventQueueTest, ClearMakesAllHandlesInert) {
  EventQueue q;
  std::vector<EventHandle> handles;
  int fired = 0;
  for (int i = 0; i < 16; ++i) {
    handles.push_back(q.schedule(i, [&fired](SimTime) { ++fired; }));
  }
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  for (auto& h : handles) {
    EXPECT_FALSE(h.active());
    EXPECT_FALSE(h.cancel());  // inert, exactly like an already-fired event
  }
  // The queue is fully usable afterwards, and seq keeps counting up.
  EventHandle next = q.schedule(5, [&fired](SimTime) { ++fired; });
  EXPECT_TRUE(next.active());
  q.pop_and_run();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueueTest, RecycledSlotDoesNotResurrectOldHandle) {
  // The control arena recycles slots; a stale handle whose slot was reused
  // must stay inert (generation mismatch) rather than aliasing the new
  // event. Cancel-heavy churn guarantees slot reuse within a few rounds.
  EventQueue q;
  EventHandle stale = q.schedule(1, [](SimTime) { FAIL() << "cancelled"; });
  stale.cancel();
  int fired = 0;
  std::vector<EventHandle> fresh;
  for (int i = 0; i < 8; ++i) {
    fresh.push_back(q.schedule(2 + i, [&fired](SimTime) { ++fired; }));
  }
  // The stale handle must not observe or affect the recycled slot's event.
  EXPECT_FALSE(stale.active());
  EXPECT_FALSE(stale.cancel());
  EXPECT_EQ(q.size(), 8u);
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(fired, 8);
  // And fired handles on recycled slots are inert too.
  for (auto& h : fresh) EXPECT_FALSE(h.active());
}

TEST(EventQueueTest, ManyEventsStressOrdering) {
  EventQueue q;
  SimTime last = -1;
  // Deterministic pseudo-shuffled insertion times.
  for (int i = 0; i < 5000; ++i) {
    const SimTime t = (i * 7919) % 104729;
    q.schedule(t, [&last](SimTime at) {
      EXPECT_GE(at, last);
      last = at;
    });
  }
  std::size_t count = 0;
  while (!q.empty()) {
    q.pop_and_run();
    ++count;
  }
  EXPECT_EQ(count, 5000u);
}

TEST(EventQueueTest, CancelInteriorMovesLastKeyUp) {
  // Scheduled in this order each time lands below its parent, so the heap
  // array is exactly [0, 100, 1, 101, 102, 50, 2]. Cancelling 101 (index 3,
  // parent 100) moves the last key, 2, into its place, where it must rise
  // above 100; left below it, 50 would fire before 2.
  const std::vector<SimTime> times{0, 100, 1, 101, 102, 50, 2};
  EventQueue q;
  std::vector<SimTime> order;
  std::vector<EventHandle> h;
  for (SimTime t : times) {
    h.push_back(q.schedule(t, [&order](SimTime at) { order.push_back(at); }));
  }
  EXPECT_TRUE(h[3].cancel());
  for (std::size_t i = 0; i < h.size(); ++i) {
    EXPECT_EQ(h[i].active(), i != 3);
    EXPECT_EQ(h[i].time(), i != 3 ? times[i] : kTimeInfinity);
  }
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(order, (std::vector<SimTime>{0, 1, 2, 50, 100, 102}));
}

// Drives an EventQueue with a seeded random mix of operations and mirrors
// every one in a std::set of (at, seq, id), the obviously correct model.
class QueueOracle {
 public:
  explicit QueueOracle(std::uint64_t seed) : rng_(seed) {}

  void run(int ops) {
    for (int i = 0; i < ops; ++i) {
      step(/*in_callback=*/false);
      check_counts();
      if (i % 64 == 0) check_handles();
    }
    while (!q_.empty()) pop();
    check_counts();
    check_handles();
  }

 private:
  using Key = std::tuple<SimTime, std::uint64_t, int>;

  void step(bool in_callback) {
    const unsigned r = static_cast<unsigned>(rng_() % 100);
    if (r < 45) {
      schedule();
    } else if (r < 55) {
      cancel(pick_any());  // often stale: fired, cancelled or cleared
    } else if (r < 62) {
      if (!model_.empty()) cancel(std::get<2>(*model_.begin()));
    } else if (r < 67) {
      if (!model_.empty()) cancel(std::get<2>(*model_.rbegin()));
    } else if (r < 72) {
      if (!handles_.empty()) cancel(static_cast<int>(handles_.size()) - 1);
    } else if (r < 99) {
      if (!in_callback && !q_.empty()) pop();
    } else if (!in_callback && rng_() % 8 == 0) {
      q_.clear();
      model_.clear();
    }
  }

  void schedule() {
    // A narrow time range makes ties common; seq must break them.
    const SimTime at = static_cast<SimTime>(rng_() % 48);
    const int id = static_cast<int>(handles_.size());
    handles_.push_back(q_.schedule(at, [this, id](SimTime t) { fired(id, t); }));
    keys_.push_back(Key{at, next_seq_++, id});
    model_.insert(keys_.back());
  }

  void cancel(int id) {
    if (id < 0) return;
    const bool pending = model_.erase(keys_[id]) == 1;
    EXPECT_EQ(handles_[id].cancel(), pending) << "id " << id;
    EXPECT_FALSE(handles_[id].active());
  }

  void pop() {
    const Key head = *model_.begin();
    model_.erase(model_.begin());
    expected_ = std::get<2>(head);
    EXPECT_EQ(q_.pop_and_run(), std::get<0>(head));
    EXPECT_EQ(expected_, -1) << "event " << std::get<2>(head) << " never ran";
  }

  void fired(int id, SimTime t) {
    EXPECT_EQ(id, expected_);
    EXPECT_EQ(t, std::get<0>(keys_[id]));
    expected_ = -1;
    EXPECT_FALSE(handles_[id].active());
    check_counts();
    // Callbacks schedule and cancel too, including cancels of their own
    // (already fired) handle.
    const int nested = static_cast<int>(rng_() % 3);
    for (int i = 0; i < nested; ++i) step(/*in_callback=*/true);
    if (rng_() % 8 == 0) cancel(id);
    check_counts();
  }

  int pick_any() {
    if (handles_.empty()) return -1;
    return static_cast<int>(rng_() % handles_.size());
  }

  void check_counts() {
    ASSERT_EQ(q_.size(), model_.size());
    ASSERT_EQ(q_.heap_entries(), model_.size());
    ASSERT_EQ(q_.empty(), model_.empty());
    ASSERT_EQ(q_.next_time(),
              model_.empty() ? kTimeInfinity : std::get<0>(*model_.begin()));
  }

  void check_handles() {
    for (std::size_t id = 0; id < handles_.size(); ++id) {
      const EventHandle& h = handles_[id];
      const bool pending = model_.count(keys_[id]) == 1;
      ASSERT_EQ(h.active(), pending) << "id " << id;
      EXPECT_EQ(h.time(), pending ? std::get<0>(keys_[id]) : kTimeInfinity);
      EXPECT_EQ(h.seq(), pending ? std::get<1>(keys_[id]) : 0u);
    }
  }

  std::mt19937_64 rng_;
  EventQueue q_;
  std::vector<EventHandle> handles_;
  std::vector<Key> keys_;  // by id
  std::set<Key> model_;    // pending events
  std::uint64_t next_seq_ = 0;
  int expected_ = -1;
};

TEST(EventQueueTest, MatchesOrderedSetOracleUnderRandomOps) {
  for (std::uint64_t seed : {1u, 2u, 3u, 7919u}) {
    SCOPED_TRACE(seed);
    QueueOracle(seed).run(4000);
  }
}

}  // namespace
}  // namespace dimetrodon::sim
