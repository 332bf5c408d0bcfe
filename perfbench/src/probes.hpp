// Host-time probes the benchmark wraps around the library's public extension
// points. Nothing here reaches into the simulator: a probe either decorates
// an interface the library already exposes (cluster::LoadBalancer,
// sched::InjectionHook) or records spans around calls the benchmark makes.
#pragma once

#include <array>
#include <bit>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/load_balancer.hpp"
#include "sched/scheduler.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

/// Log-linear histogram of nanosecond durations: 16 sub-buckets per power of
/// two, so a percentile read back is within ~6% of the true sample.
class NsHistogram {
 public:
  void add(std::uint64_t ns) {
    ++buckets_[index(ns)];
    ++count_;
  }
  void merge(const NsHistogram& o) {
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
      buckets_[i] += o.buckets_[i];
    }
    count_ += o.count_;
  }
  std::uint64_t count() const { return count_; }
  /// Lower edge of the bucket holding the q-quantile (q in [0, 1]).
  double quantile(double q) const {
    if (count_ == 0) return 0.0;
    const auto rank = static_cast<std::uint64_t>(
        q * static_cast<double>(count_ - 1));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
      seen += buckets_[i];
      if (seen > rank) return static_cast<double>(lower_edge(i));
    }
    return static_cast<double>(lower_edge(buckets_.size() - 1));
  }

 private:
  static constexpr int kSub = 4;  // log2 of sub-buckets per octave
  static std::size_t index(std::uint64_t ns) {
    if (ns < (1u << kSub)) return static_cast<std::size_t>(ns);
    const int e = 63 - std::countl_zero(ns);
    const auto sub = (ns >> (e - kSub)) & ((1u << kSub) - 1);
    return static_cast<std::size_t>((e - kSub + 1) << kSub) + sub;
  }
  static std::uint64_t lower_edge(std::size_t i) {
    if (i < (1u << kSub)) return i;
    const std::size_t e = (i >> kSub) + kSub - 1;
    const std::uint64_t sub = i & ((1u << kSub) - 1);
    return (std::uint64_t{1} << e) | (sub << (e - kSub));
  }
  std::array<std::uint64_t, (64 - kSub + 1) << kSub> buckets_{};
  std::uint64_t count_ = 0;
};

/// Count plus total host time of one kind of call.
struct CallTotals {
  std::uint64_t calls = 0;
  std::int64_t ns = 0;
};

/// What accrued since `before`, which is advanced to `now`.
inline CallTotals take_delta(const CallTotals& now, CallTotals& before) {
  const CallTotals d{now.calls - before.calls, now.ns - before.ns};
  before = now;
  return d;
}

/// Timing decorator around the routing policy. Picks run on the cluster's
/// coordinator thread only, so plain counters suffice.
class TimingBalancer final : public dimetrodon::cluster::LoadBalancer {
 public:
  explicit TimingBalancer(std::unique_ptr<LoadBalancer> inner)
      : inner_(std::move(inner)) {}
  const char* name() const override { return inner_->name(); }
  std::size_t pick(const dimetrodon::cluster::FleetView& fleet) override {
    const auto t0 = Clock::now();
    const std::size_t id = inner_->pick(fleet);
    const std::int64_t ns = ns_between(t0, Clock::now());
    ++totals_.calls;
    totals_.ns += ns;
    hist_.add(static_cast<std::uint64_t>(ns));
    return id;
  }
  const CallTotals& totals() const { return totals_; }
  const NsHistogram& histogram() const { return hist_; }

 private:
  std::unique_ptr<LoadBalancer> inner_;
  CallTotals totals_;
  NsHistogram hist_;
};

/// Decorator around a machine's injection hook (the Dimetrodon controller).
/// Each machine owns its own decorator, so fleet lanes never share one.
/// With `timed` the pick-next-thread decision is bracketed by clock reads.
class HookProbe final : public dimetrodon::sched::InjectionHook {
 public:
  HookProbe(dimetrodon::sched::InjectionHook& inner, bool timed)
      : inner_(&inner), timed_(timed) {}
  std::optional<dimetrodon::sim::SimTime> before_dispatch(
      const dimetrodon::sched::Thread& t, dimetrodon::sched::CoreId core,
      dimetrodon::sim::SimTime now) override {
    ++totals_.calls;
    if (t.thread_class() == dimetrodon::sched::ThreadClass::kUser) {
      ++user_calls_;
    }
    if (!timed_) return inner_->before_dispatch(t, core, now);
    const auto t0 = Clock::now();
    auto quantum = inner_->before_dispatch(t, core, now);
    totals_.ns += ns_between(t0, Clock::now());
    return quantum;
  }
  void on_injection_complete(const dimetrodon::sched::Thread& t,
                             dimetrodon::sched::CoreId core,
                             dimetrodon::sim::SimTime now) override {
    inner_->on_injection_complete(t, core, now);
  }
  const CallTotals& totals() const { return totals_; }
  /// Calls for user-class threads: the dispatches the controller evaluates,
  /// since kernel-class threads are exempt from injection by default.
  std::uint64_t user_calls() const { return user_calls_; }

 private:
  dimetrodon::sched::InjectionHook* inner_;
  bool timed_;
  CallTotals totals_;
  std::uint64_t user_calls_ = 0;
};

/// One recorded span. Picks and hook calls are too frequent to record
/// individually; they are folded into the enclosing slice span.
struct Span {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  // 0 = root
  std::string name;
  std::int64_t start_ns = 0;  // relative to the trace origin
  std::int64_t end_ns = 0;
  CallTotals picks;
  CallTotals hooks;
};

/// In-memory span recorder, written out once when the benchmark ends.
class SpanTrace {
 public:
  SpanTrace() : origin_(Clock::now()) {}
  std::uint32_t open(std::string name, std::uint32_t parent) {
    Span s;
    s.id = static_cast<std::uint32_t>(spans_.size() + 1);
    s.parent = parent;
    s.name = std::move(name);
    s.start_ns = ns_between(origin_, Clock::now());
    spans_.push_back(std::move(s));
    return spans_.back().id;
  }
  Span& close(std::uint32_t id) {
    Span& s = spans_.at(id - 1);
    s.end_ns = ns_between(origin_, Clock::now());
    return s;
  }
  const std::vector<Span>& spans() const { return spans_; }
  /// Chrome trace-event JSON ("X" complete events; ids and parents in args).
  std::string to_json() const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
