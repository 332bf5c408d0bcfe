#include "cluster/load_balancer.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace dimetrodon::cluster {

namespace {

/// Cycle node ids in increasing order, skipping nodes that dropped out of
/// the routable set (drained) without disturbing the rotation for the rest.
/// The routable list is sorted, so one binary search finds the successor.
class RoundRobin final : public LoadBalancer {
 public:
  const char* name() const override { return "round-robin"; }
  std::size_t pick(const FleetView& fleet) override {
    const std::uint32_t* end = fleet.routable + fleet.routable_count;
    const std::uint32_t* it = std::upper_bound(fleet.routable, end, last_);
    const std::uint32_t chosen = it != end ? *it : fleet.routable[0];  // wrap
    last_ = chosen;
    return chosen;
  }

 private:
  std::uint32_t last_ = static_cast<std::uint32_t>(-1);
};

/// The ordered policies below are strict total orders over node ids (their
/// comparison chain, then lower id); each picks the minimum routable id.
/// Least-outstanding: fewer outstanding, then cooler, then lower id.
struct LeastOutstandingOrder {
  static constexpr PolicyKind kKind = PolicyKind::kLeastOutstanding;
  bool operator()(const FleetView& f, std::uint32_t a, std::uint32_t b) const {
    if (f.outstanding[a] != f.outstanding[b]) {
      return f.outstanding[a] < f.outstanding[b];
    }
    if (f.sensor_temp_c[a] != f.sensor_temp_c[b]) {
      return f.sensor_temp_c[a] < f.sensor_temp_c[b];
    }
    return a < b;
  }
};

/// Thermal-aware: route to the node whose quantized sensors read coolest.
/// The 1 C quantization makes ties common, so the outstanding-count
/// tie-break doubles as herd protection between telemetry refreshes.
struct CoolestNodeOrder {
  static constexpr PolicyKind kKind = PolicyKind::kCoolestNode;
  bool operator()(const FleetView& f, std::uint32_t a, std::uint32_t b) const {
    if (f.sensor_temp_c[a] != f.sensor_temp_c[b]) {
      return f.sensor_temp_c[a] < f.sensor_temp_c[b];
    }
    if (f.outstanding[a] != f.outstanding[b]) {
      return f.outstanding[a] < f.outstanding[b];
    }
    return a < b;
  }
};

/// Injection-aware: deprioritize nodes whose idle-injection probability
/// exceeds the threshold — Dimetrodon is already taxing their capacity by
/// roughly a (1 - p) factor, so their outstanding count is scored against
/// that reduced capacity (capacity-weighted least-outstanding). Under light
/// load everything scores ~0 and the tie-break sends traffic to the
/// un-injected tier; under heavy load the injected nodes still absorb their
/// fair, capacity-proportional share instead of the preferred tier
/// collapsing. Order: score, then light tier, then coolest-node's chain.
struct InjectionAwareOrder {
  static constexpr PolicyKind kKind = PolicyKind::kInjectionAware;
  double threshold;

  bool operator()(const FleetView& f, std::uint32_t a, std::uint32_t b) const {
    const double sa = score(f, a);
    const double sb = score(f, b);
    if (sa != sb) return sa < sb;
    const bool a_light = f.injection_probability[a] <= threshold;
    const bool b_light = f.injection_probability[b] <= threshold;
    if (a_light != b_light) return a_light;
    return CoolestNodeOrder{}(f, a, b);
  }

  double score(const FleetView& f, std::uint32_t id) const {
    // Injection leaves the node ~(1 - p) of its cycles; floor the weight so
    // a p ~ 1 node still scores finitely.
    const double p = f.injection_probability[id];
    const double capacity = p <= threshold ? 1.0 : std::max(0.05, 1.0 - p);
    return static_cast<double>(f.outstanding[id]) / capacity;
  }
};

/// Binary min-heap of the routable ids under `Order`, read against the live
/// view arrays (no cached keys). A changed (or zero) revision re-heapifies
/// in O(N). Otherwise, by the FleetView::revision contract, the only change
/// since the last pick is the +1 on that pick's outstanding count; the pick
/// was the root and +1 only moves a node later in every order, so one
/// sift-down restores the heap in O(log N).
template <class Order>
class HeapPolicy final : public LoadBalancer {
 public:
  explicit HeapPolicy(Order order = {}) : order_(order) {}
  const char* name() const override { return policy_name(Order::kKind); }
  std::size_t pick(const FleetView& fleet) override {
    if (fleet.revision == 0 || fleet.revision != revision_) {
      revision_ = fleet.revision;
      heap_.assign(fleet.routable, fleet.routable + fleet.routable_count);
      for (std::size_t i = heap_.size() / 2; i-- > 0;) sift_down(fleet, i);
    } else {
      sift_down(fleet, 0);
    }
    return heap_[0];
  }

 private:
  void sift_down(const FleetView& f, std::size_t i) {
    const std::size_t n = heap_.size();
    const std::uint32_t id = heap_[i];
    for (std::size_t child = 2 * i + 1; child < n; child = 2 * i + 1) {
      if (child + 1 < n && order_(f, heap_[child + 1], heap_[child])) ++child;
      if (!order_(f, heap_[child], id)) break;
      heap_[i] = heap_[child];
      i = child;
    }
    heap_[i] = id;
  }

  Order order_;
  std::vector<std::uint32_t> heap_;
  std::uint64_t revision_ = 0;
};

}  // namespace

const char* policy_name(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kRoundRobin: return "round-robin";
    case PolicyKind::kLeastOutstanding: return "least-outstanding";
    case PolicyKind::kCoolestNode: return "coolest-node";
    case PolicyKind::kInjectionAware: return "injection-aware";
  }
  throw std::invalid_argument("unknown PolicyKind");
}

std::unique_ptr<LoadBalancer> make_policy(PolicyKind kind,
                                          double injection_threshold) {
  switch (kind) {
    case PolicyKind::kRoundRobin: return std::make_unique<RoundRobin>();
    case PolicyKind::kLeastOutstanding:
      return std::make_unique<HeapPolicy<LeastOutstandingOrder>>();
    case PolicyKind::kCoolestNode:
      return std::make_unique<HeapPolicy<CoolestNodeOrder>>();
    case PolicyKind::kInjectionAware:
      return std::make_unique<HeapPolicy<InjectionAwareOrder>>(
          InjectionAwareOrder{injection_threshold});
  }
  throw std::invalid_argument("unknown PolicyKind");
}

}  // namespace dimetrodon::cluster
