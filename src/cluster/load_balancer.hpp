#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

namespace dimetrodon::cluster {

/// What the load balancer is allowed to see about the fleet: the operational
/// telemetry a datacenter scheduler would actually have, in structure-of-
/// arrays form so a 1000-node pick is a few cache-line streams instead of a
/// per-arrival vector of per-node structs. All pointers borrow the cluster's
/// persistent arrays — a view is built in O(1) and never allocates.
///
/// Temperatures are the node's *quantized* coretemp readings (1 C
/// resolution), refreshed at the cluster's telemetry period — not the
/// continuous model state — so routing decisions face the same sensor
/// coarseness the paper's controller does.
struct FleetView {
  std::size_t num_nodes = 0;
  /// Mean quantized sensor reading per node at the last telemetry sample
  /// (stale by up to one period). Indexed by node id.
  const double* sensor_temp_c = nullptr;
  /// Requests routed to the node and not yet completed. Increments are
  /// exact and current (the balancer's own bookkeeping at route time);
  /// decrements land at fleet flushes, when deferred advancement drains the
  /// completions — so, like the temperatures, the count runs stale by up to
  /// one telemetry period. A real fleet scheduler faces the same lag: it
  /// learns of completions from telemetry, not synchronously.
  const std::uint32_t* outstanding = nullptr;
  /// The node's configured idle-injection probability (its preventive
  /// thermal-management intensity, known fleet-wide as configuration).
  const double* injection_probability = nullptr;
  /// PROCHOT failover flag (0/1): the node tripped its thermal monitor and
  /// is being drained.
  const std::uint8_t* draining = nullptr;
  /// Ids of the currently routable nodes, strictly ascending, never empty.
  /// Draining nodes are excluded unless every node is draining (shedding
  /// load entirely would drop requests on the floor).
  const std::uint32_t* routable = nullptr;
  std::size_t routable_count = 0;
  /// Bumped by the view's owner whenever any state a pick reads changes for
  /// a routable node, EXCEPT the `outstanding[id] += 1` that follows a pick
  /// of `id` (the routable set itself counts as such state). Indexed
  /// policies rebuild on a changed revision and otherwise repair only the
  /// previous pick. 0 means "untracked": every pick rebuilds, so hand-built
  /// views need not maintain it.
  std::uint64_t revision = 0;
};

enum class PolicyKind : std::uint8_t {
  kRoundRobin,
  kLeastOutstanding,
  kCoolestNode,
  kInjectionAware,
};

const char* policy_name(PolicyKind kind);

/// Routing policy interface. `pick` chooses from the routable id list (never
/// empty) and returns the chosen node id. Policies may keep internal state
/// (a round-robin cursor, a heap index over the routable ids) but must be
/// deterministic: the same view sequence yields the same decisions. Callers
/// honor FleetView::revision: between two picks with an equal nonzero
/// revision, the only view change allowed is the +1 on the previous pick's
/// outstanding count. Decorators forward `pick` unchanged.
class LoadBalancer {
 public:
  virtual ~LoadBalancer() = default;
  virtual const char* name() const = 0;
  virtual std::size_t pick(const FleetView& fleet) = 0;
};

/// `injection_threshold` only affects kInjectionAware: nodes whose injection
/// probability exceeds it are deprioritized (used only when every routable
/// node exceeds it).
std::unique_ptr<LoadBalancer> make_policy(PolicyKind kind,
                                          double injection_threshold = 0.25);

}  // namespace dimetrodon::cluster
