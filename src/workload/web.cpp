#include "workload/web.hpp"

#include <algorithm>

namespace dimetrodon::workload {

namespace {
// Tiny poll burst used when a thread wakes to find its queue already drained
// by a sibling.
constexpr double kPollSeconds = 1e-6;
}  // namespace

/// Kernel network-interrupt thread: drains the pending queue in one batch of
/// per-request interrupt handling, then notifies user workers.
class WebKernelBehavior final : public sched::ThreadBehavior {
 public:
  explicit WebKernelBehavior(WebWorkload& w) : w_(w) {}

  sched::Burst next_burst(sim::SimTime /*now*/, sim::Rng& /*rng*/) override {
    batch_ = w_.pending_kernel_.size();
    const double work =
        batch_ == 0 ? kPollSeconds
                    : static_cast<double>(batch_) * w_.config_.kernel_demand_s;
    return sched::Burst{work, 0.4};
  }

  sched::BurstOutcome on_burst_complete(sim::SimTime /*now*/,
                                        sim::Rng& /*rng*/) override {
    for (std::size_t i = 0; i < batch_ && !w_.pending_kernel_.empty(); ++i) {
      w_.ready_.push_back(w_.pending_kernel_.front());
      w_.pending_kernel_.pop_front();
      w_.wake_one_worker();
    }
    batch_ = 0;
    if (!w_.pending_kernel_.empty()) return sched::BurstOutcome::Continue();
    return sched::BurstOutcome::SleepUntilWoken();
  }

 private:
  WebWorkload& w_;
  std::size_t batch_ = 0;
};

/// User-level worker: picks up a ready request, burns its service demand,
/// sends the response.
class WebWorkerBehavior final : public sched::ThreadBehavior {
 public:
  explicit WebWorkerBehavior(WebWorkload& w) : w_(w) {}

  sched::Burst next_burst(sim::SimTime /*now*/, sim::Rng& rng) override {
    if (w_.ready_.empty()) {
      has_request_ = false;
      return sched::Burst{kPollSeconds, 0.1};
    }
    current_ = w_.ready_.front();
    w_.ready_.pop_front();
    ++w_.in_service_;
    has_request_ = true;
    const double demand =
        rng.exponential(w_.config_.demand_mean_s) * current_.demand_scale;
    return sched::Burst{demand, w_.config_.worker_activity};
  }

  sched::BurstOutcome on_burst_complete(sim::SimTime /*now*/,
                                        sim::Rng& /*rng*/) override {
    if (has_request_) {
      --w_.in_service_;
      w_.complete_request(current_);
      has_request_ = false;
    }
    if (!w_.ready_.empty()) return sched::BurstOutcome::Continue();
    return sched::BurstOutcome::SleepUntilWoken();
  }

 private:
  WebWorkload& w_;
  WebWorkload::Request current_{};
  bool has_request_ = false;
};

void WebWorkload::deploy(sched::Machine& machine) {
  machine_ = &machine;
  client_rng_ = std::make_unique<sim::Rng>(machine.fork_rng());

  kernel_tid_ =
      machine.create_thread("netisr", sched::ThreadClass::kKernel, 0,
                            std::make_unique<WebKernelBehavior>(*this));
  threads_.push_back(kernel_tid_);
  for (std::size_t i = 0; i < config_.workers; ++i) {
    const auto tid = machine.create_thread(
        "httpd" + std::to_string(i), sched::ThreadClass::kUser, 0,
        std::make_unique<WebWorkerBehavior>(*this));
    worker_tids_.push_back(tid);
    threads_.push_back(tid);
  }
  // One think timer per connection: a connection thinks or has exactly one
  // request in flight. Callout ids are consecutive, so connection c's is
  // first_think_ + c. Stagger the initial think times so connections don't
  // arrive in a burst.
  for (std::size_t c = 0; c < config_.connections; ++c) {
    const auto conn = static_cast<std::uint32_t>(c);
    const auto id = machine.add_callout(
        "web think", [this, conn](sim::SimTime) { issue_request(conn); });
    if (c == 0) first_think_ = id;
    schedule_think(conn);
  }
}

void WebWorkload::schedule_think(std::uint32_t connection) {
  const double think = client_rng_->exponential(config_.think_mean_s);
  machine_->arm_callout(first_think_ + connection,
                        machine_->now() + sim::from_sec(think));
}

void WebWorkload::issue_request(std::uint32_t connection) {
  pending_kernel_.push_back(Request{machine_->now(), connection, false});
  machine_->wake_thread(kernel_tid_);
}

void WebWorkload::inject_request(std::uint32_t request_id, double demand_scale,
                                 sim::SimTime issued_at) {
  const sim::SimTime issued = issued_at < 0 ? machine_->now() : issued_at;
  pending_kernel_.push_back(Request{issued, request_id, true, demand_scale});
  machine_->wake_thread(kernel_tid_);
}

std::vector<WebWorkload::CancelledRequest>
WebWorkload::cancel_pending_external() {
  std::vector<CancelledRequest> cancelled;
  const auto pull = [&cancelled](std::deque<Request>& q) {
    std::deque<Request> kept;
    for (const Request& r : q) {
      if (r.external) {
        cancelled.push_back({r.connection, r.issued_at, r.demand_scale});
      } else {
        kept.push_back(r);
      }
    }
    q.swap(kept);
  };
  // Ready queue first so the returned order is oldest-first overall: every
  // ready_ request passed through pending_kernel_ earlier.
  pull(ready_);
  pull(pending_kernel_);
  return cancelled;
}

void WebWorkload::wake_one_worker() {
  for (const auto tid : worker_tids_) {
    if (machine_->thread(tid).state() == sched::ThreadState::kSleeping) {
      machine_->wake_thread(tid);
      return;
    }
  }
  // All workers busy: the request waits in ready_ until one finishes.
}

void WebWorkload::complete_request(const Request& r) {
  ++completed_;
  const double latency = sim::to_sec(machine_->now() - r.issued_at);
  machine_->tracer().request_complete(machine_->now(), r.connection, latency);
  if (window_open_) {
    ++window_.total;
    if (latency <= config_.good_threshold_s) ++window_.good;
    if (latency <= config_.tolerable_threshold_s) {
      ++window_.tolerable;
    } else {
      ++window_.fail;
    }
    window_.max_latency_s = std::max(window_.max_latency_s, latency);
    window_hist_.add(latency);
  }
  if (r.external) {
    if (on_external_complete_) on_external_complete_(r.connection, latency);
  } else {
    schedule_think(r.connection);
  }
}

double WebWorkload::progress(const sched::Machine& /*machine*/) const {
  return static_cast<double>(completed_);
}

void WebWorkload::mark() {
  window_ = QosStats{};
  window_hist_.reset();
  window_open_ = true;
}

WebWorkload::QosStats WebWorkload::stats_since_mark() const {
  QosStats s = window_;
  s.mean_latency_s = window_hist_.mean();
  s.p50_latency_s = window_hist_.percentile(50.0);
  s.p95_latency_s = window_hist_.percentile(95.0);
  s.p99_latency_s = window_hist_.percentile(99.0);
  return s;
}

}  // namespace dimetrodon::workload
