// machine-web: one default 4-core machine (meter off) serving a closed-loop
// web workload of 1500 connections under global Dimetrodon injection
// (p = 0.5, L = 10 ms) — the paper's fig3/fig6 cell at a load where every
// machine layer works. Web interactions land off the 250 us thermal substep
// grid, so the thermal remainder steps, the event queue, the scheduler and
// the injection hook dominate host time. There is no router.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "core/controller.hpp"
#include "sched/machine.hpp"
#include "workload.hpp"
#include "workload/web.hpp"

namespace perfbench {
namespace {

using namespace dimetrodon;

constexpr std::size_t kConnections = 1500;
constexpr double kInjectP = 0.5;
constexpr sim::SimTime kQuantum = sim::from_ms(10);
constexpr sim::SimTime kSlice = sim::from_ms(100);
constexpr std::size_t kSlices = 300;  // 30 simulated seconds per repetition
// Boundaries compared against the reference stepper (2 simulated seconds).
constexpr std::size_t kReferenceSlices = 20;
// The ROADMAP's exact-vs-reference tolerance for the thermal integrator.
constexpr double kThermalTolC = 0.05;
constexpr double kMaxDieC = 150.0;

/// The machine, its workload and controller; the hook probe, when present,
/// sits between the machine and the controller.
struct WebSystem {
  std::unique_ptr<sched::Machine> machine;
  std::unique_ptr<workload::WebWorkload> web;
  std::unique_ptr<core::DimetrodonController> controller;
  std::unique_ptr<HookProbe> probe;

  WebSystem(std::uint64_t seed, bool reference_stepper, bool probed) {
    sched::MachineConfig mc;
    mc.enable_meter = false;
    mc.thermal_reference_stepper = reference_stepper;
    mc.seed = seed;
    machine = std::make_unique<sched::Machine>(mc);
    workload::WebWorkload::Config wc;
    wc.connections = kConnections;
    web = std::make_unique<workload::WebWorkload>(wc);
    web->deploy(*machine);
    web->mark();
    controller = std::make_unique<core::DimetrodonController>(*machine);
    controller->sys_set_global(kInjectP, kQuantum);
    if (probed) {
      probe = std::make_unique<HookProbe>(*controller, /*timed=*/true);
      machine->set_injection_hook(probe.get());
    }
    machine->run_until(0);
  }
  ~WebSystem() {
    if (probe) machine->set_injection_hook(controller.get());
  }
  WebSystem(const WebSystem&) = delete;
  WebSystem& operator=(const WebSystem&) = delete;

  void die_temps(std::vector<double>& out) const {
    for (sched::CoreId c = 0; c < machine->num_cores(); ++c) {
      out.push_back(machine->die_temperature(c));
    }
  }
};

class MachineWeb final : public Workload {
 public:
  explicit MachineWeb(std::uint64_t seed) : seed_(seed) {}
  const char* name() const override { return "machine-web"; }
  std::string shape() const override {
    return "1 node, 4 cores, " + std::to_string(kConnections) +
           " connections, p=0.5 L=10ms, 30 sim-s per repetition in 100 ms "
           "slices";
  }

  double setup_only() override {
    const auto t0 = Clock::now();
    WebSystem sys(seed_, false, false);
    return ns_between(t0, Clock::now()) * 1e-9;
  }

  RepResult run_rep(Checks& checks, SpanTrace* trace,
                    std::uint32_t parent) override {
    RepResult rep;
    rep.traced = trace != nullptr;
    const auto t0 = Clock::now();
    WebSystem sys(seed_, false, rep.traced);
    rep.setup_s = ns_between(t0, Clock::now()) * 1e-9;

    const bool record_prefix = prefix_temps_.empty();
    double peak_c = 0.0;
    std::vector<double> temps;
    CallTotals hooks_before;
    const std::uint32_t rep_span =
        trace ? trace->open("machine-web.repetition", parent) : 0;
    for (std::size_t i = 0; i < kSlices; ++i) {
      const std::uint32_t span = trace ? trace->open("slice", rep_span) : 0;
      const auto s0 = Clock::now();
      sys.machine->run_for(kSlice);
      const double ms = ns_between(s0, Clock::now()) * 1e-6;
      if (trace) {
        trace->close(span).hooks =
            take_delta(sys.probe->totals(), hooks_before);
        const auto& q = sys.machine->simulator().queue();
        rep.layers.sample_heap_waste(q.heap_entries(), q.size());
      }
      rep.slice_ms.push_back(ms);
      rep.host_s += ms * 1e-3;
      rep.node_s += sim::to_sec(kSlice);

      checks.begin();
      temps.clear();
      sys.die_temps(temps);
      for (const double t : temps) {
        checks.check(std::isfinite(t) && t > 0.0 && t < kMaxDieC,
                     "machine-web: die temperature out of bounds");
        peak_c = std::max(peak_c, t);
      }
      if (record_prefix && i < kReferenceSlices) {
        prefix_temps_.insert(prefix_temps_.end(), temps.begin(), temps.end());
      }
      // Closed loop: every connection has at most one request in flight, and
      // the workload's completions match the machine's counter.
      checks.check(sys.web->outstanding_requests() <= kConnections,
                   "machine-web: more requests in flight than connections");
      checks.check(sys.web->completed_requests() ==
                       sys.machine->counters().totals().requests_completed,
                   "machine-web: completion count disagrees with counter");
    }
    if (trace) trace->close(rep_span);

    const obs::CounterTotals totals = sys.machine->counters().totals();
    const std::uint64_t completed = sys.web->completed_requests();
    rep.digest = digest_text(completed + sys.web->outstanding_requests(),
                             completed, sys.web->stats_since_mark().p99_latency_s,
                             peak_c, sys.machine->energy().total_joules(),
                             totals);

    const core::InjectionStats& inj = sys.controller->stats();
    if (rep.traced) {
      rep.layers.counters = totals;
      rep.layers.events = sys.machine->simulator().events_executed();
      rep.layers.hooks = sys.probe->totals();
      rep.layers.hook_user_calls = sys.probe->user_calls();
      checks.begin();
      checks.check(rep.layers.hook_user_calls == inj.decisions,
                   "machine-web: hook probe missed controller decisions");
    }
    // Guard: injection really happened, at close to the configured rate.
    checks.begin();
    const double ratio = inj.decisions == 0
                             ? 0.0
                             : static_cast<double>(inj.injections) /
                                   static_cast<double>(inj.decisions);
    checks.check(inj.injections > 0 && std::abs(ratio - kInjectP) < 0.05,
                 "machine-web guard: injection ratio not near p");
    return rep;
  }

  void verify(Checks& checks) override {
    // The same seed under the reference stepper, compared at the same slice
    // boundaries; outside the timed region.
    WebSystem ref(seed_, /*reference_stepper=*/true, false);
    std::vector<double> temps;
    for (std::size_t i = 0; i < kReferenceSlices; ++i) {
      ref.machine->run_for(kSlice);
      ref.die_temps(temps);
    }
    checks.begin();
    checks.check(temps.size() == prefix_temps_.size(),
                 "machine-web: reference prefix has a different shape");
    err_c_ = 0.0;
    for (std::size_t i = 0; i < std::min(temps.size(), prefix_temps_.size());
         ++i) {
      err_c_ = std::max(err_c_, std::abs(temps[i] - prefix_temps_[i]));
    }
    checks.check(std::isfinite(err_c_) && err_c_ <= kThermalTolC,
                 "machine-web: thermal_err_c above the 0.05 C tolerance");
  }

  double thermal_err_c() const override { return err_c_; }

 private:
  std::uint64_t seed_;
  std::vector<double> prefix_temps_;
  double err_c_ = -1.0;
};

}  // namespace

std::unique_ptr<Workload> make_machine_web(std::uint64_t seed) {
  return std::make_unique<MachineWeb>(seed);
}

}  // namespace perfbench
