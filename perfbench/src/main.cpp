// perfbench: the simulator's end-to-end and per-layer benchmark.
//
//   perfbench --workload machine-web|fleet-1000|fleet-churn --seed N
//             --seconds S --trace 0|1 [--trace-file PATH]
//
// Runs whole repetitions of the workload (at least two) for about S seconds
// of host time, then checks the run outside the timed region. With
// --trace 0 every repetition is untraced and the last stdout line carries
// the end-to-end metrics; with --trace 1 repetitions alternate untraced and
// traced, and the last line carries the per-layer metrics. Every check that
// fails counts as a failed operation and makes the exit code nonzero.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "workload.hpp"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_file;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "machine-web|fleet-1000|fleet-churn --seed N --seconds S "
               "--trace 0|1 [--trace-file PATH]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const std::string val = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), &end, 10);
      if (*end != '\0' || val.empty()) usage("--seed must be an integer");
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0.0) || a.seconds > 600.0) {
        usage("--seconds must be in (0, 600]");
      }
    } else if (key == "--trace") {
      if (val != "0" && val != "1") usage("--trace must be 0 or 1");
      a.trace = val == "1";
    } else if (key == "--trace-file") {
      a.trace_file = val;
    } else {
      usage(("unknown argument " + key).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  return a;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

struct Metric {
  Metric(std::string n, double v, std::string u, bool r = true,
         std::string why = "")
      : name(std::move(n)),
        value(v),
        unit(std::move(u)),
        reported(r),
        note(std::move(why)) {}
  std::string name;
  double value;
  std::string unit;
  /// Reported to the driver. Host-time metrics that exist on only some
  /// workloads are printed but left out, so no workload reports a constant
  /// placeholder time.
  bool reported;
  std::string note;
};

void print_table(const char* title, const std::vector<Metric>& ms) {
  std::printf("%s\n", title);
  for (const Metric& m : ms) {
    std::printf("  %-38s %16.6g %-10s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
}

std::string json_line(bool correct, const Checks& checks,
                      const std::vector<Metric>& ms) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(checks.attempted());
  out += ", \"failed\": " + std::to_string(checks.failed());
  out += ", \"metrics\": {";
  bool first = true;
  char buf[64];
  for (const Metric& m : ms) {
    if (!m.reported) continue;
    std::snprintf(buf, sizeof buf, "%.17g", m.value);
    out += first ? "" : ", ";
    out += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           m.unit + "\"}";
    first = false;
  }
  return out + "}}";
}

/// Peak resident set of this process image (VmHWM). Unlike getrusage's
/// ru_maxrss it is not inherited across exec from the launching process.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

std::vector<Metric> end_to_end(const std::vector<RepResult>& reps,
                               const std::vector<double>& setups,
                               double peak_rss_mb, double thermal_err,
                               const Checks& checks) {
  std::vector<double> slices;
  double node_s = 0.0;
  double host_s = 0.0;
  for (const RepResult& r : reps) {
    if (r.traced) continue;
    slices.insert(slices.end(), r.slice_ms.begin(), r.slice_ms.end());
    node_s += r.node_s;
    host_s += r.host_s;
  }
  const std::string n = "n=" + std::to_string(slices.size()) + " slices";
  std::vector<Metric> ms = {
      {"node_sim_s_per_s", ratio(node_s, host_s), "node-s/s", true,
       "node-simulated s per host s"},
      // Printed, not sent: on a host whose single-thread speed switches
      // between regimes lasting tens of seconds, the median slice of the
      // one-machine workload jumps between them from run to run (README).
      {"slice_ms_p50", quantile(slices, 0.5), "ms", false, n},
      {"slice_ms_p90", quantile(slices, 0.9), "ms", true, n},
      {"setup_s", quantile(setups, 0.5), "s", true,
       "median of " + std::to_string(setups.size())},
      {"peak_rss_mb", peak_rss_mb, "MB", true,
       "peak resident set through the first repetition"},
  };
  if (thermal_err >= 0.0) {
    ms.push_back({"thermal_err_c", thermal_err, "C", false,
                  "max |exact - reference stepper| over 20 boundaries"});
  } else {
    ms.push_back({"thermal_err_c", 0.0, "C", false, "n/a on this workload"});
  }
  ms.push_back({"failed_ops_share",
                ratio(static_cast<double>(checks.failed()),
                      static_cast<double>(checks.attempted())),
                "ratio", false,
                std::to_string(checks.failed()) + "/" +
                    std::to_string(checks.attempted()) + " operations"});
  return ms;
}

std::vector<Metric> per_layer(const std::vector<RepResult>& reps) {
  const RepResult* first = nullptr;
  double traced_host = 0.0, traced_node = 0.0;
  double plain_host = 0.0, plain_node = 0.0;
  CallTotals hooks, picks;
  NsHistogram pick_hist;
  std::vector<double> admin_ms, join_ms;
  for (const RepResult& r : reps) {
    if (!r.traced) {
      plain_host += r.host_s;
      plain_node += r.node_s;
      continue;
    }
    if (first == nullptr) first = &r;
    traced_host += r.host_s;
    traced_node += r.node_s;
    hooks.calls += r.layers.hooks.calls;
    hooks.ns += r.layers.hooks.ns;
    picks.calls += r.layers.picks.calls;
    picks.ns += r.layers.picks.ns;
    pick_hist.merge(r.layers.pick_hist);
    admin_ms.insert(admin_ms.end(), r.layers.admin_ms.begin(),
                    r.layers.admin_ms.end());
    join_ms.insert(join_ms.end(), r.layers.join_ms.begin(),
                   r.layers.join_ms.end());
  }
  // Counts come from the first traced repetition, so they repeat exactly.
  const LayerTotals& L = first->layers;
  const auto& c = L.counters;
  const double ns = first->node_s;
  const auto per = [&](double count) { return ratio(count, ns); };
  const auto d = [](auto v) { return static_cast<double>(v); };
  const double traced_host_ns = traced_host * 1e9;
  const bool hooks_timed = hooks.ns > 0;
  const bool has_cluster = L.lanes_used > 0;
  const bool has_admin = !admin_ms.empty();
  const std::string na = "n/a on this workload";
  double join_mean = 0.0;
  for (const double j : join_ms) join_mean += j / d(join_ms.size());

  return {
      {"thermal.factorizations_per_node_s", per(d(c.thermal_factorizations)),
       "1/node-s"},
      {"thermal.evictions_per_node_s", per(d(c.thermal_evictions)),
       "1/node-s"},
      {"thermal.matvecs_per_node_s", per(d(c.thermal_matvecs)), "1/node-s"},
      {"thermal.substeps_per_node_s", per(d(c.thermal_substeps)), "1/node-s"},
      {"thermal.fast_forward_share",
       ratio(d(c.thermal_fast_forward_steps), d(c.thermal_substeps)), "ratio"},
      {"sim.events_per_node_s", per(d(L.events)), "1/node-s"},
      {"sim.heap_waste", ratio(L.heap_waste_sum, d(L.heap_waste_samples)),
       "ratio", true, "cancelled / heap entries, mean at slice ends"},
      {"sched.dispatches_per_node_s", per(d(c.dispatches)), "1/node-s"},
      {"sched.context_switches_per_node_s", per(d(c.context_switches)),
       "1/node-s"},
      {"sched.cstate_entries_per_node_s", per(d(c.cstate_entries)),
       "1/node-s"},
      {"core.hook_calls_per_node_s", per(d(L.hooks.calls)), "1/node-s"},
      {"core.injections_per_node_s", per(d(c.injections)), "1/node-s"},
      {"core.inject_ratio", ratio(d(c.injections), d(L.hook_user_calls)),
       "ratio", true, "injections / user-thread hook calls"},
      {"core.hook_ns_mean", ratio(d(hooks.ns), d(hooks.calls)), "ns", false,
       hooks_timed ? "" : na},
      {"core.hook_share", ratio(d(hooks.ns), traced_host_ns), "ratio", true,
       hooks_timed ? "hook host time / slice host time" : na},
      {"workload.requests_per_node_s", per(d(c.requests_completed)),
       "1/node-s"},
      {"control.governor_samples_per_node_s", per(d(c.governor_samples)),
       "1/node-s"},
      {"cluster.picks_per_node_s", per(d(L.picks.calls)), "1/node-s"},
      {"cluster.pick_ns_mean", ratio(d(picks.ns), d(picks.calls)), "ns",
       false, has_cluster ? "" : na},
      {"cluster.pick_ns_p99", pick_hist.quantile(0.99), "ns", false,
       has_cluster ? "n=" + std::to_string(pick_hist.count()) + " picks" : na},
      {"cluster.pick_share", ratio(d(picks.ns), traced_host_ns), "ratio",
       true, has_cluster ? "pick host time / slice host time" : na},
      {"cluster.advances_per_node_s", per(d(L.advances)), "1/node-s"},
      {"cluster.lanes_used", d(L.lanes_used), "count"},
      {"cluster.lanes_requested", d(L.lanes_requested), "count"},
      {"cluster.admin_ms_p50", quantile(admin_ms, 0.5), "ms", false,
       has_admin ? "n=" + std::to_string(admin_ms.size()) + " calls" : na},
      {"cluster.admin_ms_max",
       admin_ms.empty() ? 0.0
                        : *std::max_element(admin_ms.begin(), admin_ms.end()),
       "ms", false, has_admin ? "" : na},
      {"cluster.join_ms_mean", join_mean, "ms", false,
       join_ms.empty() ? na : "n=" + std::to_string(join_ms.size())},
      {"cluster.drains", d(L.drains), "count", true, "PROCHOT drain episodes"},
      {"cluster.shed_share", ratio(d(L.shed), d(L.offered)), "ratio"},
      {"trace.overhead",
       ratio(traced_host, traced_node) / ratio(plain_host, plain_node) - 1.0,
       "ratio", true, "traced / untraced host time per node-s, minus 1"},
  };
}

std::unique_ptr<Workload> make(const Args& a) {
  if (a.workload == "machine-web") return make_machine_web(a.seed);
  if (a.workload == "fleet-1000") return make_fleet_1000(a.seed);
  if (a.workload == "fleet-churn") return make_fleet_churn(a.seed);
  usage(("unknown workload " + a.workload).c_str());
}

int run(const Args& a) {
  std::unique_ptr<Workload> w = make(a);
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n  %s\n",
              w->name(), static_cast<unsigned long long>(a.seed), a.seconds,
              a.trace ? 1 : 0, w->shape().c_str());
  std::fflush(stdout);

  Checks checks;
  SpanTrace spans;
  const std::uint32_t root =
      a.trace ? spans.open(std::string("perfbench.") + w->name(), 0) : 0;
  // Set-up is sampled before and after the timed repetitions as well as in
  // each of them, so its median spans the run. The samples before also warm
  // the allocator and caches ahead of the first timed slice.
  std::vector<double> setups;
  for (int i = 0; i < 3; ++i) setups.push_back(w->setup_only());
  std::vector<RepResult> reps;
  double rss_mb = 0.0;
  const auto start = Clock::now();
  // Stop before a repetition would end past the budget, judged from the
  // mean repetition so far; at least two run so determinism can be checked.
  double elapsed = 0.0;
  while (reps.size() < 2 ||
         elapsed * static_cast<double>(reps.size() + 1) /
                 static_cast<double>(reps.size()) <=
             a.seconds) {
    const bool traced = a.trace && reps.size() % 2 == 1;
    reps.push_back(w->run_rep(checks, traced ? &spans : nullptr, root));
    // The workload's own footprint, before the benchmark's bookkeeping of
    // later repetitions adds to it.
    if (reps.size() == 1) rss_mb = peak_rss_mb();
    elapsed = ns_between(start, Clock::now()) * 1e-9;
  }
  if (a.trace) spans.close(root);

  // Outside the timed region: set-up samples, reference runs, determinism.
  for (const RepResult& r : reps) {
    if (!r.traced) setups.push_back(r.setup_s);
  }
  for (int i = 0; i < 3; ++i) setups.push_back(w->setup_only());
  w->verify(checks);
  checks.begin();
  for (const RepResult& r : reps) {
    checks.check(r.digest == reps.front().digest,
                 "simulated statistics differ between repetitions");
  }

  std::printf("repetitions: %zu (%zu traced)\n", reps.size(),
              static_cast<std::size_t>(std::count_if(
                  reps.begin(), reps.end(),
                  [](const RepResult& r) { return r.traced; })));
  std::printf("digest %s %016llx (identical across repetitions and lanes)\n%s",
              w->name(),
              static_cast<unsigned long long>(fnv1a(reps.front().digest)),
              reps.front().digest.c_str());
  const bool correct = checks.failed() == 0;
  for (const std::string& m : checks.messages()) {
    std::printf("CHECK FAILED: %s\n", m.c_str());
  }

  const std::vector<Metric> e2e =
      end_to_end(reps, setups, rss_mb, w->thermal_err_c(), checks);
  print_table("end-to-end (untraced repetitions):", e2e);
  std::vector<Metric> layers;
  if (a.trace) {
    layers = per_layer(reps);
    print_table("per-layer (traced repetitions):", layers);
    if (!a.trace_file.empty()) {
      std::ofstream out(a.trace_file);
      out << spans.to_json();
      std::printf("trace: %zu spans -> %s\n", spans.spans().size(),
                  a.trace_file.c_str());
    }
  }
  std::printf("%s\n", json_line(correct, checks, a.trace ? layers : e2e)
                          .c_str());
  return correct ? 0 : 1;
}

}  // namespace

std::string digest_text(std::uint64_t offered, std::uint64_t completed,
                        double p99_s, double peak_exact_c, double energy_j,
                        const dimetrodon::obs::CounterTotals& counters) {
  char buf[96];
  std::string out;
  const auto line = [&](const char* k, const char* fmt, auto v) {
    std::snprintf(buf, sizeof buf, fmt, v);
    out += "  ";
    out += k;
    out += "=";
    out += buf;
    out += "\n";
  };
  line("offered", "%llu", static_cast<unsigned long long>(offered));
  line("completed", "%llu", static_cast<unsigned long long>(completed));
  line("p99_s", "%a", p99_s);
  line("peak_exact_c", "%a", peak_exact_c);
  line("energy_j", "%a", energy_j);
  for (const auto& [name, member] : dimetrodon::obs::CounterTotals::fields()) {
    line(name, "%llu", static_cast<unsigned long long>(counters.*member));
  }
  return out;
}

std::string SpanTrace::to_json() const {
  std::string out = "{\"traceEvents\": [\n";
  char buf[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(
        buf, sizeof buf,
        "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
        "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %u, \"parent\": %u, "
        "\"picks\": %llu, \"pick_ns\": %lld, \"hooks\": %llu, "
        "\"hook_ns\": %lld}}%s\n",
        s.name.c_str(), static_cast<double>(s.start_ns) * 1e-3,
        static_cast<double>(s.end_ns - s.start_ns) * 1e-3, s.id, s.parent,
        static_cast<unsigned long long>(s.picks.calls),
        static_cast<long long>(s.picks.ns),
        static_cast<unsigned long long>(s.hooks.calls),
        static_cast<long long>(s.hooks.ns),
        i + 1 < spans_.size() ? "," : "");
    out += buf;
  }
  return out + "]}\n";
}

}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::run(perfbench::parse(argc, argv));
}
