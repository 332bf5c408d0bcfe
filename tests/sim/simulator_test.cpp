#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <utility>
#include <vector>

namespace dimetrodon::sim {
namespace {

// Drives a Simulator with one callback per timer id, the way sched::Machine
// dispatches its typed timers, and checks that the clock reads each event's
// time while it runs.
class Driver {
 public:
  using Fn = std::function<void(SimTime)>;

  TimerId add(Fn fn) {
    fns_.push_back(std::move(fn));
    return s.queue().add();
  }
  void at(TimerId id, SimTime when) { s.queue().arm(id, when, 0); }
  void after(TimerId id, SimTime delay) { at(id, s.now() + delay); }
  void run_until(SimTime deadline) {
    s.run_until(deadline, [this](const Event& e) { fire(e); });
  }
  bool step() {
    return s.step([this](const Event& e) { fire(e); });
  }

  Simulator s;

 private:
  void fire(const Event& e) {
    EXPECT_EQ(s.now(), e.at);
    fns_[e.id](e.at);
  }

  std::vector<Fn> fns_;  // by TimerId
};

TEST(SimulatorTest, ClockStartsAtZero) {
  Simulator s;
  EXPECT_EQ(s.now(), 0);
  EXPECT_EQ(s.events_executed(), 0u);
}

TEST(SimulatorTest, RunUntilAdvancesClockToDeadline) {
  Driver d;
  d.run_until(from_ms(5));
  EXPECT_EQ(d.s.now(), from_ms(5));
}

TEST(SimulatorTest, EventsExecuteAtTheirTimestamp) {
  Driver d;
  SimTime seen = -1;
  d.at(d.add([&](SimTime t) { seen = t; }), from_ms(3));
  d.run_until(from_ms(10));
  EXPECT_EQ(seen, from_ms(3));
  EXPECT_EQ(d.s.now(), from_ms(10));
}

TEST(SimulatorTest, AfterSchedulesRelative) {
  Driver d;
  d.run_until(from_ms(2));
  SimTime seen = -1;
  d.after(d.add([&](SimTime t) { seen = t; }), from_ms(3));
  d.run_until(from_ms(10));
  EXPECT_EQ(seen, from_ms(5));
}

TEST(SimulatorTest, EventExactlyAtDeadlineRuns) {
  Driver d;
  bool ran = false;
  d.at(d.add([&](SimTime) { ran = true; }), from_ms(10));
  d.run_until(from_ms(10));
  EXPECT_TRUE(ran);
}

TEST(SimulatorTest, EventAfterDeadlineDoesNotRun) {
  Driver d;
  bool ran = false;
  d.at(d.add([&](SimTime) { ran = true; }), from_ms(11));
  d.run_until(from_ms(10));
  EXPECT_FALSE(ran);
  // ... but runs when the deadline extends.
  d.run_until(from_ms(12));
  EXPECT_TRUE(ran);
}

TEST(SimulatorTest, SelfReschedulingEventChains) {
  Driver d;
  int fired = 0;
  TimerId tick = 0;
  tick = d.add([&](SimTime) {
    ++fired;
    if (fired < 5) d.after(tick, from_ms(1));
  });
  d.after(tick, from_ms(1));
  d.run_until(from_ms(100));
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(d.s.events_executed(), 5u);
}

TEST(SimulatorTest, StepRunsSingleEvent) {
  Driver d;
  int fired = 0;
  d.at(d.add([&](SimTime) { ++fired; }), 1);
  d.at(d.add([&](SimTime) { ++fired; }), 2);
  EXPECT_TRUE(d.step());
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(d.s.now(), 1);
  EXPECT_TRUE(d.step());
  EXPECT_FALSE(d.step());
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(d.s.events_executed(), 2u);
}

TEST(SimulatorTest, CancelledEventViaHandle) {
  Driver d;
  bool ran = false;
  const TimerId id = d.add([&](SimTime) { ran = true; });
  d.at(id, 5);
  EXPECT_TRUE(d.s.queue().disarm(id));
  d.run_until(10);
  EXPECT_FALSE(ran);
  EXPECT_EQ(d.s.events_executed(), 0u);
}

TEST(SimulatorTest, ClockNeverRunsBackwards) {
  Driver d;
  d.run_until(from_ms(10));
  d.run_until(from_ms(5));  // earlier deadline: no-op
  EXPECT_EQ(d.s.now(), from_ms(10));
}

TEST(SimulatorTest, ResetForRestoreDisarmsAndPinsClock) {
  Driver d;
  bool ran = false;
  const TimerId id = d.add([&](SimTime) { ran = true; });
  d.at(id, from_ms(3));
  d.s.reset_for_restore(from_ms(7), 42);
  EXPECT_FALSE(d.s.queue().armed(id));
  EXPECT_EQ(d.s.now(), from_ms(7));
  EXPECT_EQ(d.s.events_executed(), 42u);
  d.run_until(from_ms(20));
  EXPECT_FALSE(ran);
}

}  // namespace
}  // namespace dimetrodon::sim
