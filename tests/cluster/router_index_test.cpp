// Differential tests for the indexed routing policies: every pick of
// least-outstanding, coolest-node and injection-aware must equal the linear
// scan those policies are defined by. The scans live here, as the oracle;
// the library routes through a heap kept current by FleetView::revision.
#include "cluster/load_balancer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <memory>
#include <random>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/fleet_spec.hpp"

namespace dimetrodon::cluster {
namespace {

constexpr double kThreshold = 0.25;

constexpr PolicyKind kIndexedPolicies[] = {PolicyKind::kLeastOutstanding,
                                           PolicyKind::kCoolestNode,
                                           PolicyKind::kInjectionAware};

// --- the oracle: one linear scan per policy ---------------------------------
// The routable list is scanned in ascending id order and a candidate only
// displaces the incumbent on strictly-better, so ties go to the lower id.

bool less_loaded(const FleetView& f, std::uint32_t a, std::uint32_t b) {
  if (f.outstanding[a] != f.outstanding[b]) {
    return f.outstanding[a] < f.outstanding[b];
  }
  return f.sensor_temp_c[a] < f.sensor_temp_c[b];
}

bool cooler(const FleetView& f, std::uint32_t a, std::uint32_t b) {
  if (f.sensor_temp_c[a] != f.sensor_temp_c[b]) {
    return f.sensor_temp_c[a] < f.sensor_temp_c[b];
  }
  return f.outstanding[a] < f.outstanding[b];
}

double injection_score(const FleetView& f, std::uint32_t id) {
  const double p = f.injection_probability[id];
  const double capacity = p <= kThreshold ? 1.0 : std::max(0.05, 1.0 - p);
  return static_cast<double>(f.outstanding[id]) / capacity;
}

bool injection_prefer(const FleetView& f, std::uint32_t a, std::uint32_t b) {
  const bool a_light = f.injection_probability[a] <= kThreshold;
  const bool b_light = f.injection_probability[b] <= kThreshold;
  if (a_light != b_light) return a_light;
  return cooler(f, a, b);
}

std::size_t linear_pick(PolicyKind kind, const FleetView& f) {
  std::uint32_t best = f.routable[0];
  for (std::size_t i = 1; i < f.routable_count; ++i) {
    const std::uint32_t id = f.routable[i];
    bool better = false;
    switch (kind) {
      case PolicyKind::kLeastOutstanding:
        better = less_loaded(f, id, best);
        break;
      case PolicyKind::kCoolestNode: better = cooler(f, id, best); break;
      case PolicyKind::kInjectionAware: {
        const double s = injection_score(f, id);
        const double b = injection_score(f, best);
        better = s < b || (s == b && injection_prefer(f, id, best));
        break;
      }
      case PolicyKind::kRoundRobin:
        ADD_FAILURE() << "round-robin is not an ordered policy";
        break;
    }
    if (better) best = id;
  }
  return best;
}

// --- (a) random views --------------------------------------------------------

/// SoA arrays behind a hand-driven FleetView, mutated the way a cluster
/// mutates its own: +1 on each pick, everything else behind a revision bump.
struct RandomFleet {
  std::vector<double> temp;
  std::vector<std::uint32_t> outstanding;
  std::vector<double> p;
  std::vector<std::uint8_t> draining;
  std::vector<std::uint32_t> routable;
  std::uint64_t revision = 1;

  RandomFleet(std::size_t n, std::mt19937_64& rng)
      : temp(n), outstanding(n), p(n), draining(n, 0) {
    for (std::size_t i = 0; i < n; ++i) {
      temp[i] = random_temp(rng);
      outstanding[i] = static_cast<std::uint32_t>(rng() % 4);
      p[i] = random_p(rng);
    }
    resample_routable(rng);
  }

  // 2-3 whole degrees and p straddling the threshold: ties everywhere.
  static double random_temp(std::mt19937_64& rng) {
    return 40.0 + static_cast<double>(rng() % 3);
  }
  static double random_p(std::mt19937_64& rng) {
    constexpr double kLevels[] = {0.0, 0.1, kThreshold, 0.3, 0.5, 0.97};
    return kLevels[rng() % std::size(kLevels)];
  }

  void resample_routable(std::mt19937_64& rng) {
    routable.clear();
    for (std::uint32_t i = 0; i < temp.size(); ++i) {
      if (rng() % 4 != 0) routable.push_back(i);
    }
    if (routable.empty()) {
      routable.push_back(static_cast<std::uint32_t>(rng() % temp.size()));
    }
  }

  /// One write a cluster would follow with a revision bump.
  void mutate(std::mt19937_64& rng) {
    const std::size_t id = rng() % temp.size();
    switch (rng() % 5) {
      case 0: temp[id] = random_temp(rng); break;
      case 1: p[id] = random_p(rng); break;
      case 2: resample_routable(rng); break;
      case 3:  // completions drain some outstanding work
        for (std::uint32_t& o : outstanding) {
          o -= std::min(o, static_cast<std::uint32_t>(rng() % 3));
        }
        break;
      default: ++outstanding[id]; break;  // an affinity-pinned arrival
    }
    ++revision;
  }

  FleetView view() const {
    FleetView v;
    v.num_nodes = temp.size();
    v.sensor_temp_c = temp.data();
    v.outstanding = outstanding.data();
    v.injection_probability = p.data();
    v.draining = draining.data();
    v.routable = routable.data();
    v.routable_count = routable.size();
    v.revision = revision;
    return v;
  }
};

TEST(RouterIndexTest, RandomViewsMatchTheLinearScan) {
  for (const PolicyKind kind : kIndexedPolicies) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      SCOPED_TRACE(::testing::Message()
                   << policy_name(kind) << " seed " << seed);
      std::mt19937_64 rng(seed);
      RandomFleet fleet(1 + rng() % 97, rng);
      const auto policy = make_policy(kind, kThreshold);
      // Seeds 5 and 6 alternate between tracked and untracked (revision 0)
      // views, the way a hand-built view would be used.
      const bool untracked_phases = seed >= 5;
      for (int step = 0; step < 4000; ++step) {
        if (rng() % 8 == 0) fleet.mutate(rng);
        FleetView v = fleet.view();
        if (untracked_phases && (step / 100) % 2 == 1) v.revision = 0;
        const std::size_t want = linear_pick(kind, v);
        const std::size_t got = policy->pick(v);
        ASSERT_EQ(got, want) << "step " << step;
        ++fleet.outstanding[got];
      }
    }
  }
}

TEST(RouterIndexTest, UnchangedViewRepeatsThePick) {
  // A caller that does not apply the +1 sees the same (still minimal) node.
  std::mt19937_64 rng(11);
  RandomFleet fleet(33, rng);
  for (const PolicyKind kind : kIndexedPolicies) {
    const auto policy = make_policy(kind, kThreshold);
    const std::size_t first = policy->pick(fleet.view());
    EXPECT_EQ(policy->pick(fleet.view()), first) << policy_name(kind);
    EXPECT_EQ(first, linear_pick(kind, fleet.view())) << policy_name(kind);
  }
}

// --- (b) cluster-level checking decorator ------------------------------------

/// Forwards `pick` to the real policy and checks it against the oracle on
/// the same view. A missing revision bump in Cluster leaves the heap stale
/// and shows up here as a mismatch.
class CheckingBalancer final : public LoadBalancer {
 public:
  CheckingBalancer(PolicyKind kind, std::uint64_t* picks,
                   std::uint64_t* mismatches)
      : kind_(kind),
        inner_(make_policy(kind, kThreshold)),
        picks_(picks),
        mismatches_(mismatches) {}
  const char* name() const override { return inner_->name(); }
  std::size_t pick(const FleetView& fleet) override {
    const std::size_t want = linear_pick(kind_, fleet);
    const std::size_t got = inner_->pick(fleet);
    ++*picks_;
    if (got != want) ++*mismatches_;
    return got;
  }

 private:
  PolicyKind kind_;
  std::unique_ptr<LoadBalancer> inner_;
  std::uint64_t* picks_;
  std::uint64_t* mismatches_;
};

/// An arrival trace where about a quarter of requests carry an affinity key
/// and some are heavy, so queues build and removals have work to re-home.
std::shared_ptr<const ArrivalTrace> keyed_trace(sim::SimTime span) {
  auto trace = std::make_shared<ArrivalTrace>();
  std::mt19937_64 rng(2024);
  sim::SimTime at = 0;
  while (at < span) {
    at += 1 + static_cast<sim::SimTime>(rng() % sim::from_us(600));
    ArrivalRecord r;
    r.at = at;
    r.affinity = rng() % 4 == 0 ? static_cast<std::uint32_t>(1 + rng() % 50)
                                : 0;
    r.size_class = static_cast<std::uint8_t>(rng() % 8 == 0 ? 2 : 0);
    trace->records.push_back(r);
  }
  return trace;
}

TEST(RouterIndexTest, ClusterPicksMatchTheLinearScanThroughChurn) {
  for (const PolicyKind kind : kIndexedPolicies) {
    SCOPED_TRACE(policy_name(kind));
    sched::MachineConfig machine;
    machine.enable_meter = false;
    // fig10's compressed heatsink plus a low PROCHOT band, so the heat
    // wave below (no rack layer: it hits every inlet at once) trips
    // hardware drains within the run.
    machine.floorplan.hs_capacitance = 15.0;
    machine.prochot_c = 55.0;
    machine.prochot_release_c = 50.0;
    workload::WebWorkload::Config web = ClusterConfig::open_loop_web();
    web.demand_mean_s = 0.005;
    ClusterConfig cfg = FleetSpec::racks(2)
                            .nodes_per_rack(4)
                            .with_machine(machine)
                            .with_web(web)
                            .with_cooling(1.0, 0.5)
                            .with_injection_gradient(0.6)
                            .with_telemetry(sim::from_ms(20))
                            .config();
    cfg.arrival_trace = keyed_trace(sim::from_sec(6));

    std::uint64_t picks = 0;
    std::uint64_t mismatches = 0;
    Cluster fleet(std::move(cfg), std::make_unique<CheckingBalancer>(
                                      kind, &picks, &mismatches));
    const sim::SimTime step = sim::from_ms(300);
    fleet.run(step);
    fleet.admin_drain(1);
    fleet.run(step);
    fleet.admin_set_injection(2, 0.6, sim::from_ms(10));
    fleet.run(step);
    fleet.admin_undrain(1);
    fleet.run(step);
    fleet.admin_remove(4);  // queued requests re-home through pick()
    fleet.run(step);
    NodeSpec joiner;
    joiner.fan_speed_fraction = 0.9;
    joiner.injection_probability = 0.3;
    fleet.admin_join(joiner, sim::from_ms(200));
    fleet.run(step);
    fleet.admin_set_injection(0, 0.0, sim::from_ms(10));
    fleet.run(step);
    fleet.set_crac_supply(60.0);  // heat wave: PROCHOT drains
    const ClusterResult r = fleet.run(sim::from_sec(3));

    EXPECT_EQ(mismatches, 0u) << "of " << picks << " picks";
    EXPECT_GT(picks, 1000u);
    EXPECT_GT(r.counters.requests_rehomed, 0u);
    EXPECT_EQ(r.counters.node_joins, 1u);
    EXPECT_GT(r.drains, 0u);
    EXPECT_EQ(r.counters.requests_shed, 0u);
  }
}

}  // namespace
}  // namespace dimetrodon::cluster
