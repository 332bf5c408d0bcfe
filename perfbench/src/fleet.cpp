// Fleet workloads, driven through cluster::Cluster's public surface in
// closed-loop slices of one telemetry period, with 2 fleet lanes.
//
// fleet-1000: the fig9 shape — 100 racks of 10 nodes with CRAC
// recirculation, a +/-60% diurnal day with a 1.8x flash crowd, 600 rps per
// node, 20 ms telemetry, injection-aware routing and hysteresis governors.
// The routing-heavy read path: every arrival is a FleetView scan on the
// serial coordinator.
//
// fleet-churn: 10 racks of 10 nodes driven through the admin_* calls
// scenario::ScenarioEngine uses — drain/undrain waves, removals,
// snapshot-warmed joins and a CRAC heat-wave ramp that trips PROCHOT
// drains. It writes to the routable set far more often per pick than
// fleet-1000, and forces fleet flushes from admin calls. The engine itself
// is bypassed so every directive is timed at the Cluster boundary.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "cluster/fleet_spec.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using namespace dimetrodon;

constexpr sim::SimTime kPeriod = sim::from_ms(20);  // telemetry == slice
constexpr std::size_t kLanes = 2;
constexpr double kMaxDieC = 150.0;

struct Directive {
  enum class Kind { kDrain, kUndrain, kRemove, kJoin, kCrac };
  std::size_t slice = 0;  // applied at the start of this slice
  Kind kind = Kind::kDrain;
  std::size_t node = 0;
  double crac_c = 0.0;
  sim::SimTime warmup = 0;
};

struct FleetPlan {
  const char* name = "";
  std::size_t racks = 0;
  double rps_per_node = 0.0;
  sim::SimTime duration = 0;
  double top_fan = 1.0;  // cooling at the top rack position
  /// false: a +/-60% diurnal day with a 1.8x flash crowd and stock thermal
  /// constants. true: constant traffic, the directives below, and fig10's
  /// compressed thermal constants so a heat wave can trip PROCHOT.
  bool churn = false;
  std::vector<Directive> directives;  // ascending by slice
  std::size_t check_slices = 0;  // prefix for the lane and whole-run checks
  std::size_t slices() const {
    return static_cast<std::size_t>(duration / kPeriod);
  }
  std::size_t nodes() const { return racks * kNodesPerRack; }
  static constexpr std::size_t kNodesPerRack = 10;
};

control::GovernorSpec governor() {
  control::GovernorSpec g;
  g.kind = control::GovernorKind::kHysteresis;
  g.hysteresis.trip_c = 46.0;
  g.hysteresis.release_c = 43.0;
  g.hysteresis.hot_probability = 0.5;
  return g;
}

FleetPlan fleet_1000_plan() {
  FleetPlan p;
  p.name = "fleet-1000";
  p.racks = 100;
  p.rps_per_node = 600.0;
  p.duration = sim::from_sec(2);
  p.top_fan = 0.5;
  p.check_slices = 25;
  return p;
}

FleetPlan fleet_churn_plan() {
  FleetPlan p;
  p.name = "fleet-churn";
  p.racks = 10;
  p.rps_per_node = 440.0;
  p.duration = sim::from_sec(6);
  p.top_fan = 0.55;
  p.churn = true;
  using K = Directive::Kind;
  auto& d = p.directives;
  // Drain/undrain wave: every 80 ms one node drains and the previous one
  // returns, so about a quarter of all slices carry admin calls and
  // slice_ms_p90 falls among them. 13 is coprime with 100, so the wave's 70
  // nodes are distinct and exclude the two removed below.
  std::size_t prev = 0;
  for (std::size_t w = 0; w < 70; ++w) {
    const std::size_t slice = 10 + 4 * w;
    const std::size_t node = (13 * w + 1) % 100;
    if (w > 0) d.push_back({slice, K::kUndrain, prev});
    d.push_back({slice, K::kDrain, node});
    prev = node;
  }
  d.push_back({290, K::kUndrain, prev});
  d.push_back({60, K::kRemove, 41});
  d.push_back({140, K::kRemove, 71});
  d.push_back({80, K::kJoin, 0, 0.0, sim::from_sec(1)});
  d.push_back({160, K::kJoin, 0, 0.0, sim::from_ms(500)});
  // Heat wave: CRAC supply ramps 25.2 -> 60 C, holds, and recovers.
  const double ramp[] = {40.0, 50.0, 60.0};
  for (std::size_t s = 0; s < 3; ++s) {
    d.push_back({60 + 10 * s, K::kCrac, 0, ramp[s]});
  }
  d.push_back({200, K::kCrac, 0, 50.0});
  d.push_back({215, K::kCrac, 0, 40.0});
  d.push_back({230, K::kCrac, 0, cluster::RackParams{}.crac_supply_c});
  std::stable_sort(d.begin(), d.end(), [](const Directive& a,
                                          const Directive& b) {
    return a.slice < b.slice;
  });
  p.check_slices = p.slices();
  return p;
}

/// Hook calls summed over a fleet's probes.
struct HookCounts {
  std::uint64_t calls = 0;
  std::uint64_t user_calls = 0;
};

/// The five statistics a whole-run call must reproduce exactly.
struct Summary {
  std::uint64_t offered = 0;
  std::uint64_t completed = 0;
  double p99_s = 0.0;
  double peak_exact_c = 0.0;
  double energy_j = 0.0;
  bool operator==(const Summary&) const = default;
};

Summary summarize(const cluster::ClusterResult& r) {
  return {r.offered, r.completed, r.qos.p99_latency_s, r.fleet_peak_exact_c,
          r.total_energy_j};
}

std::string digest_of(const cluster::ClusterResult& r) {
  return digest_text(r.offered, r.completed, r.qos.p99_latency_s,
                     r.fleet_peak_exact_c, r.total_energy_j, r.counters);
}

class Fleet final : public Workload {
 public:
  Fleet(FleetPlan plan, std::uint64_t seed)
      : plan_(std::move(plan)),
        seed_(seed),
        pool_(std::make_unique<runner::ThreadPool>(kLanes - 1)) {}

  const char* name() const override { return plan_.name; }
  std::string shape() const override {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "%zu nodes, %zu fleet lanes, %.1f sim-s per repetition in "
                  "%zu slices of 20 ms, %zu directives",
                  plan_.nodes(), kLanes, sim::to_sec(plan_.duration),
                  plan_.slices(), plan_.directives.size());
    return buf;
  }

  double setup_only() override {
    const auto t0 = Clock::now();
    auto cl = build(kLanes, nullptr);
    return ns_between(t0, Clock::now()) * 1e-9;
  }

  RepResult run_rep(Checks& checks, SpanTrace* trace,
                    std::uint32_t parent) override {
    RepResult rep;
    rep.traced = trace != nullptr;
    // Declared before the cluster so they outlive every machine holding one.
    std::vector<std::unique_ptr<HookProbe>> probes;
    HookCounts retired_hooks;
    TimingBalancer* balancer = nullptr;

    const auto t0 = Clock::now();
    std::unique_ptr<cluster::Cluster> cl =
        build(kLanes, rep.traced ? &balancer : nullptr);
    rep.setup_s = ns_between(t0, Clock::now()) * 1e-9;
    if (rep.traced) wrap_hooks(*cl, probes, retired_hooks);

    const std::uint32_t rep_span =
        trace ? trace->open(std::string(plan_.name) + ".repetition", parent)
              : 0;
    CallTotals picks_before;
    CallTotals hooks_before;
    cluster::ClusterResult r;
    std::size_t next = 0;
    for (std::size_t i = 0; i < plan_.slices(); ++i) {
      const std::uint32_t span = trace ? trace->open("slice", rep_span) : 0;
      const auto s0 = Clock::now();
      next = apply_due(*cl, i, next, &rep.layers, trace, span);
      r = cl->run(kPeriod);
      const double ms = ns_between(s0, Clock::now()) * 1e-6;
      rep.slice_ms.push_back(ms);
      rep.host_s += ms * 1e-3;
      rep.node_s += static_cast<double>(cl->active_nodes()) *
                    sim::to_sec(kPeriod);

      if (trace) {
        Span& s = trace->close(span);
        s.picks = take_delta(balancer->totals(), picks_before);
        wrap_hooks(*cl, probes, retired_hooks);
        const CallTotals hooks{hook_counts(probes, retired_hooks).calls, 0};
        s.hooks = take_delta(hooks, hooks_before);
        sample_heap_waste(*cl, rep.layers);
      }
      check_boundary(*cl, r, checks);
      if (i + 1 == plan_.check_slices && prefix_digest_.empty()) {
        prefix_digest_ = digest_of(r);
        prefix_summary_ = summarize(r);
      }
    }
    if (trace) trace->close(rep_span);
    rep.digest = digest_of(r);

    LayerTotals& L = rep.layers;
    L.counters = r.counters;
    L.advances = cl->machine_advances();
    L.lanes_used = cl->fleet_lanes();
    L.lanes_requested = kLanes;
    L.drains = r.drains;
    L.shed = r.counters.requests_shed;
    L.offered = r.offered;
    if (rep.traced) {
      for (std::size_t i = 0; i < cl->num_nodes(); ++i) {
        L.events += cl->machine(i).simulator().events_executed();
      }
      L.picks = balancer->totals();
      L.pick_hist = balancer->histogram();
      const HookCounts hooks = hook_counts(probes, retired_hooks);
      L.hooks.calls = hooks.calls;
      L.hook_user_calls = hooks.user_calls;
    }
    guard(r, rep.traced ? &L.picks : nullptr, checks);
    return rep;
  }

  void verify(Checks& checks) override {
    // Lane invariance: the same prefix on the serial path must reproduce
    // the simulated statistics bit for bit.
    {
      auto cl = build(1, nullptr);
      cluster::ClusterResult r;
      std::size_t next = 0;
      for (std::size_t i = 0; i < plan_.check_slices; ++i) {
        next = apply_due(*cl, i, next);
        r = cl->run(kPeriod);
      }
      checks.begin();
      checks.check(cl->fleet_lanes() == 1, "serial reference used lanes");
      checks.check(digest_of(r) == prefix_digest_,
                   std::string(plan_.name) +
                       ": digest differs between 1 and 2 fleet lanes");
    }
    // Slicing invariance: one run() call per span between directives.
    {
      auto cl = build(kLanes, nullptr);
      cluster::ClusterResult r;
      std::size_t next = 0;
      std::size_t i = 0;
      while (i < plan_.check_slices) {
        next = apply_due(*cl, i, next);
        const std::size_t until =
            next < plan_.directives.size()
                ? std::min(plan_.directives[next].slice, plan_.check_slices)
                : plan_.check_slices;
        r = cl->run(kPeriod * static_cast<sim::SimTime>(until - i));
        i = until;
      }
      checks.begin();
      checks.check(summarize(r) == prefix_summary_,
                   std::string(plan_.name) +
                       ": sliced run differs from whole-run call");
    }
  }

 private:
  std::unique_ptr<cluster::Cluster> build(std::size_t lanes,
                                          TimingBalancer** timing) const {
    sched::MachineConfig base;
    base.enable_meter = false;
    base.seed = seed_;
    cluster::RackParams rack;
    if (plan_.churn) {
      // fig10's compressed constants: a short heatsink time constant and a
      // low, sticky PROCHOT band, so a CRAC excursion reaches the die and
      // trips the hardware safety net within a few simulated seconds. The
      // rack air volume is compressed the same way (1.5 s time constant).
      base.floorplan.hs_capacitance = 15.0;
      base.prochot_c = 62.0;
      base.prochot_release_c = 55.0;
      rack.air_capacitance_j_per_c = 50.0;
    }
    workload::WebWorkload::Config web =
        cluster::ClusterConfig::open_loop_web();
    web.demand_mean_s = 0.0050;
    cluster::FleetSpec spec =
        cluster::FleetSpec::racks(plan_.racks)
            .nodes_per_rack(FleetPlan::kNodesPerRack)
            .with_machine(base)
            .with_web(web)
            .with_cooling(0.9, plan_.top_fan)
            .with_crac(rack)
            .with_load(plan_.rps_per_node * static_cast<double>(plan_.nodes()))
            .with_telemetry(kPeriod)
            .with_governor(governor())
            .with_seed(seed_)
            .with_fleet_threads(lanes);
    if (!plan_.churn) {
      const sim::SimTime day = plan_.duration;
      spec.with_traffic(cluster::TrafficShape::diurnal(day, 0.6).with_flash(
          day * 5 / 8, day / 8, 1.8));
    }
    cluster::ClusterConfig config = spec.config();
    // One pool worker plus the coordinator, which helps while it waits:
    // two threads run at once.
    if (lanes > 1) config.shared_pool = pool_.get();
    std::unique_ptr<cluster::LoadBalancer> policy =
        cluster::make_policy(cluster::PolicyKind::kInjectionAware, 0.25);
    if (timing != nullptr) {
      auto decorated = std::make_unique<TimingBalancer>(std::move(policy));
      *timing = decorated.get();
      policy = std::move(decorated);
    }
    return std::make_unique<cluster::Cluster>(std::move(config),
                                              std::move(policy));
  }

  static const char* directive_name(Directive::Kind k) {
    switch (k) {
      case Directive::Kind::kDrain: return "admin_drain";
      case Directive::Kind::kUndrain: return "admin_undrain";
      case Directive::Kind::kRemove: return "admin_remove";
      case Directive::Kind::kJoin: return "admin_join";
      case Directive::Kind::kCrac: return "set_crac_supply";
    }
    return "?";
  }

  /// Applies the directives due at the start of `slice`, from plan index
  /// `next`; returns the index after them. With `layers`, each call is timed
  /// and, with `trace`, recorded as a span under `parent`.
  std::size_t apply_due(cluster::Cluster& cl, std::size_t slice,
                        std::size_t next, LayerTotals* layers = nullptr,
                        SpanTrace* trace = nullptr,
                        std::uint32_t parent = 0) const {
    for (; next < plan_.directives.size() &&
           plan_.directives[next].slice == slice;
         ++next) {
      const Directive& d = plan_.directives[next];
      const std::uint32_t span =
          trace ? trace->open(directive_name(d.kind), parent) : 0;
      const auto t0 = Clock::now();
      apply(cl, d);
      const double ms = ns_between(t0, Clock::now()) * 1e-6;
      if (trace) trace->close(span);
      if (layers == nullptr) continue;
      layers->admin_ms.push_back(ms);
      if (d.kind == Directive::Kind::kJoin) layers->join_ms.push_back(ms);
    }
    return next;
  }

  static void apply(cluster::Cluster& cl, const Directive& d) {
    switch (d.kind) {
      case Directive::Kind::kDrain: cl.admin_drain(d.node); break;
      case Directive::Kind::kUndrain: cl.admin_undrain(d.node); break;
      case Directive::Kind::kRemove: cl.admin_remove(d.node); break;
      case Directive::Kind::kJoin: {
        cluster::NodeSpec n;
        n.fan_speed_fraction = 0.85;
        n.governor = governor();
        cl.admin_join(n, d.warmup);
        break;
      }
      case Directive::Kind::kCrac: cl.set_crac_supply(d.crac_c); break;
    }
  }

  /// Puts a counting probe between every machine and its controller. Run
  /// after each slice: joins add machines, and a node's hook may be
  /// replaced. A displaced probe's count is kept.
  static void wrap_hooks(cluster::Cluster& cl,
                         std::vector<std::unique_ptr<HookProbe>>& probes,
                         HookCounts& retired) {
    probes.resize(cl.num_nodes());
    for (std::size_t i = 0; i < cl.num_nodes(); ++i) {
      sched::Machine& m = cl.machine(i);
      sched::InjectionHook* hook = m.injection_hook();
      if (hook == nullptr || hook == probes[i].get()) continue;
      // A displaced probe is no longer reachable from the machine.
      if (probes[i]) {
        retired.calls += probes[i]->totals().calls;
        retired.user_calls += probes[i]->user_calls();
      }
      probes[i] = std::make_unique<HookProbe>(*hook, /*timed=*/false);
      m.set_injection_hook(probes[i].get());
    }
  }

  static HookCounts hook_counts(
      const std::vector<std::unique_ptr<HookProbe>>& probes,
      const HookCounts& retired) {
    HookCounts t = retired;
    for (const auto& p : probes) {
      if (!p) continue;
      t.calls += p->totals().calls;
      t.user_calls += p->user_calls();
    }
    return t;
  }

  static void sample_heap_waste(cluster::Cluster& cl, LayerTotals& L) {
    std::uint64_t entries = 0;
    std::uint64_t live = 0;
    for (std::size_t i = 0; i < cl.num_nodes(); ++i) {
      const auto& q = cl.machine(i).simulator().queue();
      entries += q.heap_entries();
      live += q.size();
    }
    L.sample_heap_waste(entries, live);
  }

  static void check_boundary(cluster::Cluster& cl,
                             const cluster::ClusterResult& r, Checks& checks) {
    checks.begin();
    std::uint64_t outstanding = 0;
    std::uint64_t in_machines = 0;
    bool temps_ok = true;
    for (std::size_t i = 0; i < cl.num_nodes(); ++i) {
      outstanding += cl.outstanding(i);
      in_machines += cl.web(i).outstanding_requests();
      const sched::Machine& m = cl.machine(i);
      for (sched::CoreId c = 0; c < m.num_cores(); ++c) {
        const double t = m.die_temperature(c);
        temps_ok = temps_ok && std::isfinite(t) && t > 0.0 && t < kMaxDieC;
      }
    }
    checks.check(temps_ok, "fleet: die temperature out of bounds");
    // Re-homed requests keep their id, so each offered request is exactly
    // one of completed, shed or still outstanding somewhere.
    checks.check(r.offered == r.completed + r.counters.requests_shed +
                                  outstanding,
                 "fleet: offered != completed + shed + outstanding");
    checks.check(outstanding == in_machines,
                 "fleet: balancer outstanding disagrees with machines");
    checks.check(std::isfinite(r.fleet_peak_exact_c) &&
                     r.fleet_peak_exact_c < kMaxDieC,
                 "fleet: peak exact temperature out of bounds");
  }

  void guard(const cluster::ClusterResult& r, const CallTotals* picks,
             Checks& checks) const {
    checks.begin();
    if (!plan_.churn) {
      // Every arrival went through the router; nothing was shed.
      const std::uint64_t n = picks ? picks->calls : r.counters.requests_routed;
      checks.check(n == r.offered && r.counters.requests_shed == 0,
                   "fleet-1000 guard: picks != offered");
      return;
    }
    checks.check(r.drains > 0, "fleet-churn guard: no PROCHOT drain");
    checks.check(r.counters.node_joins > 0 && r.counters.node_removals > 0,
                 "fleet-churn guard: no join or no removal");
  }

  FleetPlan plan_;
  std::uint64_t seed_;
  std::unique_ptr<runner::ThreadPool> pool_;
  std::string prefix_digest_;
  Summary prefix_summary_;
};

}  // namespace

std::unique_ptr<Workload> make_fleet_1000(std::uint64_t seed) {
  return std::make_unique<Fleet>(fleet_1000_plan(), seed);
}

std::unique_ptr<Workload> make_fleet_churn(std::uint64_t seed) {
  return std::make_unique<Fleet>(fleet_churn_plan(), seed);
}

}  // namespace perfbench
