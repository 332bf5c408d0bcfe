#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <random>
#include <set>
#include <tuple>
#include <vector>

namespace dimetrodon::sim {
namespace {

// Pops every pending event and returns the tags in delivery order.
std::vector<std::uint32_t> drain_tags(EventQueue& q) {
  std::vector<std::uint32_t> tags;
  while (!q.empty()) tags.push_back(q.pop().tag);
  return tags;
}

TEST(EventQueueTest, StartsEmpty) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.next_time(), kTimeInfinity);
}

TEST(EventQueueTest, DeliversInTimeOrder) {
  EventQueue q;
  q.arm(q.add(), 30, 3);
  q.arm(q.add(), 10, 1);
  q.arm(q.add(), 20, 2);
  EXPECT_EQ(drain_tags(q), (std::vector<std::uint32_t>{1, 2, 3}));
}

TEST(EventQueueTest, TiesBreakByInsertionOrder) {
  EventQueue q;
  for (std::uint32_t i = 0; i < 10; ++i) q.arm(q.add(), 5, i);
  const std::vector<std::uint32_t> order = drain_tags(q);
  for (std::uint32_t i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueueTest, EqualTimeRearmTakesFreshSeq) {
  // Re-arming an armed timer for the time it already holds still moves it
  // behind everything armed for that time since: every arm() is a fresh
  // (at, seq) key, exactly as if the timer had been disarmed and re-armed.
  EventQueue q;
  const TimerId a = q.add();
  const TimerId b = q.add();
  q.arm(a, 10, 1);
  q.arm(b, 10, 2);
  const std::uint64_t b_seq = q.seq(b);
  q.arm(a, 10, 1);
  EXPECT_GT(q.seq(a), b_seq);
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.pop().id, b);
  EXPECT_EQ(q.pop().id, a);
}

TEST(EventQueueTest, RearmMovesArmedTimer) {
  EventQueue q;
  const TimerId a = q.add();
  const TimerId b = q.add();
  q.arm(a, 50, 7);
  q.arm(b, 20, 8);
  q.arm(a, 10, 9);  // earlier: sifts up past b
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.time(a), 10);
  const Event first = q.pop();
  EXPECT_EQ(first.id, a);
  EXPECT_EQ(first.tag, 9u);  // the tag of the latest arm
  q.arm(b, 40, 8);           // later: sifts down (alone here, trivially)
  q.arm(a, 30, 9);
  EXPECT_EQ(drain_tags(q), (std::vector<std::uint32_t>{9, 8}));
}

TEST(EventQueueTest, PopReturnsTimestamp) {
  EventQueue q;
  const TimerId id = q.add();
  q.arm(id, 77, 42);
  const Event e = q.pop();
  EXPECT_EQ(e.at, 77);
  EXPECT_EQ(e.id, id);
  EXPECT_EQ(e.tag, 42u);
}

TEST(EventQueueTest, CancelPreventsExecution) {
  EventQueue q;
  const TimerId id = q.add();
  q.arm(id, 5, 0);
  EXPECT_TRUE(q.armed(id));
  EXPECT_TRUE(q.disarm(id));
  EXPECT_FALSE(q.armed(id));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, CancelIsIdempotent) {
  EventQueue q;
  const TimerId id = q.add();
  q.arm(id, 5, 0);
  EXPECT_TRUE(q.disarm(id));
  EXPECT_FALSE(q.disarm(id));
}

TEST(EventQueueTest, DefaultHandleIsInactive) {
  // A freshly added timer is disarmed until its first arm().
  EventQueue q;
  const TimerId id = q.add();
  EXPECT_FALSE(q.armed(id));
  EXPECT_FALSE(q.disarm(id));
  EXPECT_EQ(q.time(id), kTimeInfinity);
  EXPECT_EQ(q.seq(id), 0u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, SizeTracksCancellation) {
  EventQueue q;
  const TimerId a = q.add();
  const TimerId b = q.add();
  q.arm(a, 1, 0);
  q.arm(b, 2, 0);
  EXPECT_EQ(q.size(), 2u);
  q.disarm(a);
  EXPECT_EQ(q.size(), 1u);
  q.pop();
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueueTest, HandleInactiveAfterFiring) {
  EventQueue q;
  const TimerId id = q.add();
  q.arm(id, 1, 0);
  q.pop();
  EXPECT_FALSE(q.armed(id));
  EXPECT_FALSE(q.disarm(id));
}

TEST(EventQueueTest, CancelledHeadSkipped) {
  EventQueue q;
  const TimerId first = q.add();
  const TimerId second = q.add();
  q.arm(first, 1, 0);
  q.arm(second, 2, 0);
  q.disarm(first);
  EXPECT_EQ(q.next_time(), 2);
  EXPECT_EQ(q.pop().id, second);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, CallbackMaySchedule) {
  // The popped timer is already disarmed, so its dispatcher may re-arm it
  // (a periodic timer) and arm others.
  EventQueue q;
  const TimerId tick = q.add();
  const TimerId other = q.add();
  q.arm(tick, 1, 0);
  int fired = 0;
  while (!q.empty()) {
    const Event e = q.pop();
    ++fired;
    if (e.id == tick && e.at < 3) {
      q.arm(tick, e.at + 1, 0);
      q.arm(other, e.at + 5, 0);  // moved, not duplicated
    }
  }
  EXPECT_EQ(fired, 4);  // tick at 1, 2, 3 and other once, at 7
}

TEST(EventQueueTest, CancelHeavyChurnHoldsBoundedMemory) {
  // Timer churn: one long-lived event plus thousands of arm/disarm cycles.
  // Disarming removes the entry, so the heap never holds more than the
  // pending events, whatever the disarm history.
  EventQueue q;
  const TimerId keep = q.add();
  const TimerId churn = q.add();
  q.arm(keep, 1'000'000, 0);
  std::size_t peak = 0;
  for (int i = 0; i < 20000; ++i) {
    q.arm(churn, 500'000 + i, 0);
    peak = std::max(peak, q.heap_entries());
    q.disarm(churn);
    ASSERT_EQ(q.heap_entries(), q.size());
  }
  EXPECT_EQ(peak, 2u);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.pop().id, keep);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.heap_entries(), 0u);
}

TEST(EventQueueTest, CompactionPreservesDeliveryOrder) {
  // Live events armed in shuffled time order, two disarmed ones per live
  // one (a tie and a later neighbour); delivery must still be the exact
  // (time, insertion) order, and no disarmed entry may linger in the heap.
  EventQueue q;
  for (std::uint32_t i = 0; i < 500; ++i) {
    const SimTime t = (i * 7919) % 1009;
    q.arm(q.add(), t, i);
    const TimerId tie = q.add();
    const TimerId later = q.add();
    q.arm(tie, t, 9999);
    q.arm(later, t + 1, 9999);
    q.disarm(tie);
    q.disarm(later);
    ASSERT_EQ(q.heap_entries(), q.size());
  }
  EXPECT_EQ(q.size(), 500u);
  std::vector<std::uint32_t> expected(500);
  for (std::uint32_t i = 0; i < 500; ++i) expected[i] = i;
  std::stable_sort(expected.begin(), expected.end(),
                   [](std::uint32_t a, std::uint32_t b) {
                     return (a * 7919) % 1009 < (b * 7919) % 1009;
                   });
  std::vector<std::uint32_t> order;
  while (!q.empty()) {
    order.push_back(q.pop().tag);
    ASSERT_EQ(q.heap_entries(), q.size());
  }
  EXPECT_EQ(order, expected);
}

TEST(EventQueueTest, SizeAndHandlesSurviveCompaction) {
  EventQueue q;
  std::vector<TimerId> live;
  for (int i = 0; i < 40; ++i) {
    live.push_back(q.add());
    q.arm(live.back(), 10 + i, 0);
  }
  // A disarm storm of head-time events leaves nothing behind.
  const TimerId storm = q.add();
  for (int i = 0; i < 60; ++i) {
    q.arm(storm, 5, 0);
    q.disarm(storm);
  }
  q.arm(q.add(), 1000, 0);
  EXPECT_EQ(q.size(), 41u);
  EXPECT_EQ(q.heap_entries(), q.size());
  for (const TimerId id : live) EXPECT_TRUE(q.armed(id));
  EXPECT_EQ(q.next_time(), 10);
}

TEST(EventQueueTest, TimeAndSeqAccessorsTrackLiveEvents) {
  EventQueue q;
  const TimerId a = q.add();
  const TimerId b = q.add();
  q.arm(a, 10, 0);
  q.arm(b, 10, 0);
  EXPECT_EQ(q.time(a), 10);
  EXPECT_EQ(q.time(b), 10);
  // Same timestamp: the earlier arm() wins the tie, and seq() exposes that
  // rank so the snapshot layer can re-arm in the captured order.
  EXPECT_LT(q.seq(a), q.seq(b));
  q.disarm(a);
  EXPECT_EQ(q.time(a), kTimeInfinity);
  EXPECT_EQ(q.seq(a), 0u);
  q.pop();
  EXPECT_EQ(q.time(b), kTimeInfinity);
}

TEST(EventQueueTest, ClearMakesAllHandlesInert) {
  EventQueue q;
  std::vector<TimerId> ids;
  for (int i = 0; i < 16; ++i) {
    ids.push_back(q.add());
    q.arm(ids.back(), i, 0);
  }
  const std::uint64_t last_seq = q.seq(ids.back());
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  for (const TimerId id : ids) {
    EXPECT_FALSE(q.armed(id));
    EXPECT_FALSE(q.disarm(id));  // inert, exactly like an already-fired event
  }
  // The timers are fully usable afterwards, and seq keeps counting up.
  q.arm(ids[3], 5, 0);
  EXPECT_GT(q.seq(ids[3]), last_seq);
  EXPECT_EQ(q.pop().id, ids[3]);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, RecycledSlotDoesNotResurrectOldHandle) {
  // Timer ids are never recycled: a disarmed timer stays disarmed while
  // other timers churn, and no later event is ever delivered under its id.
  EventQueue q;
  const TimerId stale = q.add();
  q.arm(stale, 1, 0);
  q.disarm(stale);
  std::vector<TimerId> fresh;
  for (int i = 0; i < 8; ++i) {
    fresh.push_back(q.add());
    EXPECT_NE(fresh.back(), stale);
    q.arm(fresh.back(), 2 + i, 0);
  }
  EXPECT_FALSE(q.armed(stale));
  EXPECT_FALSE(q.disarm(stale));
  EXPECT_EQ(q.size(), 8u);
  int fired = 0;
  while (!q.empty()) {
    EXPECT_NE(q.pop().id, stale);
    ++fired;
  }
  EXPECT_EQ(fired, 8);
  for (const TimerId id : fresh) EXPECT_FALSE(q.armed(id));
}

TEST(EventQueueTest, ManyEventsStressOrdering) {
  EventQueue q;
  // Deterministic pseudo-shuffled arm times.
  for (int i = 0; i < 5000; ++i) q.arm(q.add(), (i * 7919) % 104729, 0);
  SimTime last = -1;
  std::size_t count = 0;
  while (!q.empty()) {
    const SimTime at = q.pop().at;
    EXPECT_GE(at, last);
    last = at;
    ++count;
  }
  EXPECT_EQ(count, 5000u);
}

TEST(EventQueueTest, CancelInteriorMovesLastKeyUp) {
  // Armed in this order each time lands below its parent, so the heap array
  // is exactly [0, 100, 1, 101, 102, 50, 2]. Disarming 101 (index 3, parent
  // 100) moves the last key, 2, into its place, where it must rise above
  // 100; left below it, 50 would fire before 2.
  const std::vector<SimTime> times{0, 100, 1, 101, 102, 50, 2};
  EventQueue q;
  std::vector<TimerId> ids;
  for (SimTime t : times) {
    ids.push_back(q.add());
    q.arm(ids.back(), t, 0);
  }
  EXPECT_TRUE(q.disarm(ids[3]));
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(q.armed(ids[i]), i != 3);
    EXPECT_EQ(q.time(ids[i]), i != 3 ? times[i] : kTimeInfinity);
  }
  std::vector<SimTime> order;
  while (!q.empty()) order.push_back(q.pop().at);
  EXPECT_EQ(order, (std::vector<SimTime>{0, 1, 2, 50, 100, 102}));
}

// Drives an EventQueue with a seeded random mix of operations — arming fresh
// and existing timers, re-arming armed ones in place, disarming (often
// already-disarmed ones), popping and clearing — and mirrors every one in a
// std::set of (at, seq, id), the obviously correct model.
class QueueOracle {
 public:
  explicit QueueOracle(std::uint64_t seed) : rng_(seed) {}

  // Stops at the first divergence: past it the model no longer describes
  // the queue.
  void run(int ops) {
    for (int i = 0; i < ops && !testing::Test::HasFailure(); ++i) {
      step(/*after_pop=*/false);
      check_counts();
      if (i % 64 == 0) check_timers();
    }
    while (!q_.empty() && !testing::Test::HasFailure()) pop();
    check_counts();
    check_timers();
  }

 private:
  using Key = std::tuple<SimTime, std::uint64_t, TimerId>;

  void step(bool after_pop) {
    const unsigned r = static_cast<unsigned>(rng_() % 100);
    if (r < 20) {
      arm(add());
    } else if (r < 35) {
      arm(pick_any());  // armed: an in-place move; disarmed: an insert
    } else if (r < 45) {
      if (!model_.empty()) arm(std::get<2>(*model_.begin()));  // the head
    } else if (r < 55) {
      disarm(pick_any());  // often stale: fired, disarmed or cleared
    } else if (r < 62) {
      if (!model_.empty()) disarm(std::get<2>(*model_.begin()));
    } else if (r < 67) {
      if (!model_.empty()) disarm(std::get<2>(*model_.rbegin()));
    } else if (r < 99) {
      if (!after_pop && !q_.empty()) pop();
    } else if (!after_pop && rng_() % 8 == 0) {
      q_.clear();
      model_.clear();
      for (auto& k : keys_) k.reset();
    }
  }

  TimerId add() {
    const TimerId id = q_.add();
    EXPECT_EQ(id, keys_.size());
    keys_.emplace_back();
    tags_.push_back(0);
    return id;
  }

  TimerId pick_any() {
    if (keys_.empty()) return add();
    return static_cast<TimerId>(rng_() % keys_.size());
  }

  void arm(TimerId id) {
    // A narrow time range makes ties common; seq must break them.
    const SimTime at = static_cast<SimTime>(rng_() % 48);
    const auto tag = static_cast<std::uint32_t>(rng_());
    if (keys_[id]) model_.erase(*keys_[id]);
    q_.arm(id, at, tag);
    keys_[id] = Key{at, next_seq_++, id};
    tags_[id] = tag;
    model_.insert(*keys_[id]);
  }

  void disarm(TimerId id) {
    const bool pending = keys_[id].has_value();
    if (pending) model_.erase(*keys_[id]);
    keys_[id].reset();
    EXPECT_EQ(q_.disarm(id), pending) << "id " << id;
    EXPECT_FALSE(q_.armed(id));
  }

  void pop() {
    const Key head = *model_.begin();
    const TimerId id = std::get<2>(head);
    model_.erase(model_.begin());
    keys_[id].reset();
    const Event e = q_.pop();
    EXPECT_EQ(e.id, id);
    EXPECT_EQ(e.at, std::get<0>(head));
    EXPECT_EQ(e.tag, tags_[id]);
    EXPECT_FALSE(q_.armed(id));
    check_counts();
    // Dispatchers arm and disarm too, including their own (just popped)
    // timer.
    const int nested = static_cast<int>(rng_() % 3);
    for (int i = 0; i < nested; ++i) step(/*after_pop=*/true);
    if (rng_() % 4 == 0) arm(id);
    if (rng_() % 8 == 0) disarm(id);
  }

  void check_counts() {
    ASSERT_EQ(q_.size(), model_.size());
    ASSERT_EQ(q_.heap_entries(), model_.size());
    ASSERT_EQ(q_.empty(), model_.empty());
    ASSERT_EQ(q_.next_time(),
              model_.empty() ? kTimeInfinity : std::get<0>(*model_.begin()));
  }

  void check_timers() {
    for (TimerId id = 0; id < keys_.size(); ++id) {
      const std::optional<Key>& k = keys_[id];
      ASSERT_EQ(q_.armed(id), k.has_value()) << "id " << id;
      EXPECT_EQ(q_.time(id), k ? std::get<0>(*k) : kTimeInfinity);
      EXPECT_EQ(q_.seq(id), k ? std::get<1>(*k) : 0u);
    }
  }

  std::mt19937_64 rng_;
  EventQueue q_;
  std::vector<std::optional<Key>> keys_;  // by id: the pending key, if armed
  std::vector<std::uint32_t> tags_;       // by id: the latest arm's tag
  std::set<Key> model_;                   // pending events
  std::uint64_t next_seq_ = 0;
};

TEST(EventQueueTest, MatchesOrderedSetOracleUnderRandomOps) {
  for (std::uint64_t seed : {1u, 2u, 3u, 7919u}) {
    SCOPED_TRACE(seed);
    QueueOracle(seed).run(4000);
  }
}

}  // namespace
}  // namespace dimetrodon::sim
