#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "analysis/histogram.hpp"
#include "workload/workload.hpp"

namespace dimetrodon::workload {

/// Closed-loop web-serving workload modeled on the paper's SPECWeb2005
/// eCommerce runs (§3.7): 440 simultaneous connections issue requests after
/// a think time; each request is first handled by a kernel network thread
/// (interrupt servicing) and then by a user-level worker thread (the
/// two-stage path whose double-delay hazard §3.1 discusses). Response
/// latency is bucketed by the SPECWeb QoS thresholds: "good" (<= 3 s),
/// "tolerable" (<= 5 s), "fail" (> 5 s).
class WebWorkload final : public Workload {
 public:
  struct Config {
    std::size_t connections = 440;
    double think_mean_s = 1.8;       // per-connection think time (exp)
    double demand_mean_s = 0.0040;   // user-level service demand (exp)
    double kernel_demand_s = 0.00012;  // per-request interrupt handling
    std::size_t workers = 8;         // server worker-thread pool
    double worker_activity = 0.8;    // web-serving switching activity
    double good_threshold_s = 3.0;
    double tolerable_threshold_s = 5.0;
  };

  struct QosStats {
    std::uint64_t good = 0;
    std::uint64_t tolerable = 0;  // includes good
    std::uint64_t fail = 0;
    std::uint64_t total = 0;
    double mean_latency_s = 0.0;
    double max_latency_s = 0.0;
    // Streaming percentiles (analysis::PercentileHistogram): tail latency is
    // what the cluster routing policies trade against temperature.
    double p50_latency_s = 0.0;
    double p95_latency_s = 0.0;
    double p99_latency_s = 0.0;

    double good_fraction() const {
      return total == 0 ? 1.0
                        : static_cast<double>(good) /
                              static_cast<double>(total);
    }
    double tolerable_fraction() const {
      return total == 0 ? 1.0
                        : static_cast<double>(tolerable) /
                              static_cast<double>(total);
    }
  };

  WebWorkload() : config_() {}
  explicit WebWorkload(Config config) : config_(config) {}

  void deploy(sched::Machine& machine) override;

  /// Completed requests (throughput proxy).
  double progress(const sched::Machine& machine) const override;

  /// Start/stop windowed QoS accounting.
  void mark();
  QosStats stats_since_mark() const;

  // --- open-loop interface (cluster layer) --------------------------------
  /// Invoked at completion of an externally injected request with its id and
  /// end-to-end latency. Runs inside the machine's event loop.
  using CompletionCallback =
      std::function<void(std::uint32_t request_id, double latency_s)>;
  void set_completion_callback(CompletionCallback cb) {
    on_external_complete_ = std::move(cb);
  }

  /// Push one request from outside the closed loop (a cluster load balancer)
  /// at the machine's current time. The request takes the same two-stage
  /// kernel/worker path as connection-issued ones; on completion the
  /// callback fires instead of a think-time reschedule. Requires deploy().
  ///
  /// `demand_scale` multiplies the drawn worker service demand (trace size
  /// classes map to powers of two; 1.0 is exactly the unscaled draw, so the
  /// legacy path stays bit-identical). `issued_at` back-dates the request's
  /// latency clock — a re-homed request keeps the issue time from the node
  /// it was cancelled on; negative (default) means "now".
  void inject_request(std::uint32_t request_id, double demand_scale = 1.0,
                      sim::SimTime issued_at = -1);

  /// An external request pulled back out of the queues by
  /// cancel_pending_external() — everything a cluster needs to re-home it
  /// elsewhere with its latency clock intact.
  struct CancelledRequest {
    std::uint32_t request_id = 0;
    sim::SimTime issued_at = 0;
    double demand_scale = 1.0;
  };

  /// Remove every external request still waiting in the kernel or ready
  /// queue (requests already in service run to completion on this node) and
  /// return them oldest-first. Connection-issued requests are untouched.
  /// This is the node-removal drain primitive: the cluster re-injects the
  /// returned requests on surviving nodes.
  std::vector<CancelledRequest> cancel_pending_external();

  std::uint64_t completed_requests() const { return completed_; }
  std::size_t outstanding_requests() const {
    return pending_kernel_.size() + ready_.size() + in_service_;
  }

  const Config& config() const { return config_; }

 private:
  friend class WebKernelBehavior;
  friend class WebWorkerBehavior;

  struct Request {
    sim::SimTime issued_at;
    std::uint32_t connection;  // connection id, or request id when external
    bool external = false;
    /// Service-demand multiplier (trace size class); exactly 1.0 for
    /// connection-issued and legacy external requests.
    double demand_scale = 1.0;
  };

  void issue_request(std::uint32_t connection);
  void schedule_think(std::uint32_t connection);
  void complete_request(const Request& r);
  void wake_one_worker();

  Config config_;
  sched::Machine* machine_ = nullptr;

  std::deque<Request> pending_kernel_;  // awaiting interrupt servicing
  std::deque<Request> ready_;           // awaiting a worker
  std::size_t in_service_ = 0;

  sched::ThreadId kernel_tid_ = sched::kInvalidThread;
  std::vector<sched::ThreadId> worker_tids_;
  sched::Machine::CalloutId first_think_ = 0;  // connection 0's callout

  std::unique_ptr<sim::Rng> client_rng_;
  CompletionCallback on_external_complete_;

  std::uint64_t completed_ = 0;

  // Windowed QoS accounting: bucket counts and the sum/max accrue exactly at
  // completion; percentiles stream through the histogram, so the window costs
  // O(1) memory however many requests it spans.
  QosStats window_;
  analysis::PercentileHistogram window_hist_;
  bool window_open_ = false;
};

}  // namespace dimetrodon::workload
