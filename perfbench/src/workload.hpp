// The benchmark's workload interface and the per-repetition record every
// workload fills. A repetition builds the system from scratch (timed as
// set-up), advances it in fixed simulated slices (each timed), and checks
// every slice boundary. Only the slice calls are inside the timed region.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/counters.hpp"
#include "probes.hpp"

namespace perfbench {

/// Failed-operation accounting. An operation is one slice together with
/// its boundary checks, or one run-level check.
class Checks {
 public:
  /// Opens an operation; `check` calls until the next `begin` belong to it.
  void begin() {
    ++attempted_;
    op_failed_ = false;
  }
  void check(bool ok, const std::string& what) {
    if (ok) return;
    if (!op_failed_) ++failed_;
    op_failed_ = true;
    if (messages_.size() < 20) messages_.push_back(what);
  }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::vector<std::string>& messages() const { return messages_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool op_failed_ = false;
  std::vector<std::string> messages_;
};

/// Per-layer totals of one traced repetition, read from public counters and
/// from the benchmark's own decorators.
struct LayerTotals {
  dimetrodon::obs::CounterTotals counters;
  std::uint64_t events = 0;          // Simulator::events_executed, all nodes
  double heap_waste_sum = 0.0;       // cancelled / heap_entries, per slice
  std::uint64_t heap_waste_samples = 0;
  CallTotals hooks;                  // injection-hook calls
  std::uint64_t hook_user_calls = 0;  // of those, for user-class threads
  CallTotals picks;                  // load-balancer picks
  NsHistogram pick_hist;
  std::uint64_t advances = 0;        // Cluster::machine_advances
  std::size_t lanes_used = 0;        // Cluster::fleet_lanes
  std::size_t lanes_requested = 0;
  std::vector<double> admin_ms;      // every admin_* / set_crac_supply call
  std::vector<double> join_ms;       // the admin_join calls among them
  std::uint64_t drains = 0;          // PROCHOT drain episodes
  std::uint64_t shed = 0;
  std::uint64_t offered = 0;

  /// One slice-end sample of event-queue waste: cancelled entries over all
  /// heap entries.
  void sample_heap_waste(std::uint64_t entries, std::uint64_t live) {
    if (entries == 0) return;
    heap_waste_sum +=
        static_cast<double>(entries - live) / static_cast<double>(entries);
    ++heap_waste_samples;
  }
};

struct RepResult {
  bool traced = false;
  double setup_s = 0.0;
  std::vector<double> slice_ms;  // host time of each slice
  double node_s = 0.0;           // node-simulated seconds advanced
  double host_s = 0.0;           // sum of slice host time
  std::string digest;            // simulated statistics at the end
  LayerTotals layers;            // filled on traced repetitions
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual const char* name() const = 0;
  /// Nodes and simulated span of one repetition, for the report header.
  virtual std::string shape() const = 0;
  /// One repetition. With `trace` non-null the decorators are installed and
  /// spans are recorded under `parent`. Ends with the guard that the
  /// repetition exercised the layer the workload was chosen for.
  virtual RepResult run_rep(Checks& checks, SpanTrace* trace,
                            std::uint32_t parent) = 0;
  /// Set-up alone (construct, reach the first simulated instant, tear
  /// down); returns its host seconds.
  virtual double setup_only() = 0;
  /// Run-level checks outside the timed region, against the statistics the
  /// first repetition recorded.
  virtual void verify(Checks& checks) = 0;
  /// Largest exact-vs-reference die temperature difference; negative when
  /// the workload has no reference comparison.
  virtual double thermal_err_c() const { return -1.0; }
};

std::unique_ptr<Workload> make_machine_web(std::uint64_t seed);
std::unique_ptr<Workload> make_fleet_1000(std::uint64_t seed);
std::unique_ptr<Workload> make_fleet_churn(std::uint64_t seed);

/// "name=value" lines in a fixed order, doubles as hex floats so equal text
/// means bit-identical statistics.
std::string digest_text(std::uint64_t offered, std::uint64_t completed,
                        double p99_s, double peak_exact_c, double energy_j,
                        const dimetrodon::obs::CounterTotals& counters);

}  // namespace perfbench
