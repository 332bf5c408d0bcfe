#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/canon.hpp"
#include "sim/time.hpp"

namespace dimetrodon::control {

/// One sensor sample as a governor sees it: the *quantized* per-core readings
/// (thermal::CoreTempSensor::read(), whole degrees like the coretemp MSR),
/// never the continuous model state. Governors receive this struct and
/// nothing else — the interface is the enforcement that closed-loop control
/// acts on what real hardware exposes, not on simulator ground truth.
struct SensorFrame {
  sim::SimTime at = 0;
  double dt_s = 0.0;             // span since the previous frame (0 on first)
  std::vector<double> temps_c;   // quantized reading per physical core
  double max_c = 0.0;            // hottest quantized reading
  double mean_c = 0.0;           // mean of the quantized readings
  std::size_t hottest_core = 0;  // index of the hottest reading
};

/// A closed-loop thermal governor: maps the quantized sensor frame sampled at
/// a fixed period to an injection duty cycle (Dimetrodon probability p in
/// [0, 1]). Governors are pure controllers — no machine access, no RNG, no
/// clock reads — so a governed run stays a deterministic function of its
/// configuration.
class Governor {
 public:
  virtual ~Governor() = default;

  /// Stable identifier for tables/CSV (e.g. "hysteresis", "pid").
  virtual std::string name() const = 0;

  /// Consume one sensor frame; return the requested injection duty in [0,1].
  virtual double update(const SensorFrame& frame) = 0;

  /// True while a threshold-style governor holds its over-temperature state
  /// (drives trip/release trace events; stateless governors return false).
  virtual bool tripped() const { return false; }

  /// Forget all controller state (integrators, trip latches).
  virtual void reset() = 0;
};

/// Threshold/hysteresis governor in the style of Linux idle-injection
/// daemons (embeddedTS idleinject: pause the process tree at MAXTEMP,
/// release on cooldown): trip to `hot_probability` when the hottest sensor
/// reaches `trip_c`, hold it until the reading cools to `release_c`.
/// `release_c == trip_c` degenerates to a bare threshold controller — the
/// configuration fig8 uses to demonstrate the oscillation the band exists to
/// suppress.
struct HysteresisConfig {
  double trip_c = 72.0;          // MAXTEMP: engage injection here
  double release_c = 68.0;       // cooldown release point (<= trip_c)
  double hot_probability = 0.6;  // duty while tripped
  double idle_probability = 0.0; // duty while released
};

class HysteresisGovernor final : public Governor {
 public:
  explicit HysteresisGovernor(HysteresisConfig config);

  std::string name() const override;
  double update(const SensorFrame& frame) override;
  bool tripped() const override { return tripped_; }
  void reset() override { tripped_ = false; }

  const HysteresisConfig& config() const { return config_; }

 private:
  HysteresisConfig config_;
  bool tripped_ = false;
};

/// Discrete PID governor: injection duty proportional to the temperature
/// error above the setpoint, with conditional-integration anti-windup (the
/// integral freezes while the output is saturated against the error's
/// direction) and output clamping to [min_probability, max_probability].
/// The derivative acts on the measurement, not the error, so setpoint steps
/// do not kick the output.
struct PidConfig {
  double setpoint_c = 68.0;
  double kp = 0.10;              // duty per degree C of error
  double ki = 0.04;              // duty per (degree C * second)
  double kd = 0.0;               // duty per (degree C / second)
  double min_probability = 0.0;
  double max_probability = 0.95;
};

class PidGovernor final : public Governor {
 public:
  explicit PidGovernor(PidConfig config);

  std::string name() const override;
  double update(const SensorFrame& frame) override;
  void reset() override;

  const PidConfig& config() const { return config_; }
  double integral() const { return integral_; }

 private:
  PidConfig config_;
  double integral_ = 0.0;
  double last_measurement_ = 0.0;
  bool has_last_ = false;
};

/// Hybrid preventive + reactive: runs Dimetrodon's open-loop baseline duty
/// and lets a PI loop trim it by up to ±max_delta in response to the sensor
/// error around the setpoint. At the setpoint the hybrid behaves exactly like
/// the paper's preventive mechanism; when the sensors drift it leans the duty
/// against the drift. Anti-windup freezes the trim integral at the delta
/// clamp.
struct HybridConfig {
  double baseline_probability = 0.25;  // the open-loop preventive duty
  double setpoint_c = 68.0;
  double kp = 0.06;
  double ki = 0.02;
  double max_delta = 0.5;              // trim authority around the baseline
  double max_probability = 0.95;
};

class HybridGovernor final : public Governor {
 public:
  explicit HybridGovernor(HybridConfig config);

  std::string name() const override;
  double update(const SensorFrame& frame) override;
  void reset() override;

  const HybridConfig& config() const { return config_; }
  double trim() const { return trim_; }

 private:
  HybridConfig config_;
  double integral_ = 0.0;
  double trim_ = 0.0;
};

/// Declarative, hashable description of a governed control loop — the data
/// half that sweep cache keys, cluster NodeSpecs and harness actuations all
/// share. kNone means "no governor" (open-loop node).
enum class GovernorKind : std::uint8_t {
  kNone = 0,
  kHysteresis = 1,
  kPid = 2,
  kHybrid = 3,
};

struct GovernorSpec {
  GovernorKind kind = GovernorKind::kNone;
  /// Sensor sampling period of the control loop. A sample is a machine
  /// interaction point under the lazy thermal clock — not a new periodic
  /// substep — so a tighter loop costs one O(n²) modal advance per sample,
  /// not work linear in the substeps it spans.
  sim::SimTime sample_period = sim::from_ms(50);
  /// Idle quantum the governor requests alongside its duty cycle.
  sim::SimTime quantum = sim::from_ms(10);
  /// Band around the reference used by the settling-time stability metric.
  double stability_band_c = 1.5;
  HysteresisConfig hysteresis{};
  PidConfig pid{};
  HybridConfig hybrid{};

  bool enabled() const { return kind != GovernorKind::kNone; }
};

/// Instantiate the configured governor (nullptr for kNone).
std::unique_ptr<Governor> make_governor(const GovernorSpec& spec);

/// Human-readable label for tables/CSV, e.g. "hysteresis[72/68,p=0.60]".
std::string governor_label(const GovernorSpec& spec);

/// Reference temperature the stability metrics measure against (trip point
/// for hysteresis, setpoint for pid/hybrid, 0 for kNone).
double governor_reference_c(const GovernorSpec& spec);

/// Append the spec's canonical "gov{...}" fragment (hex-float doubles,
/// stable field order) — the fragment cluster tags and runner cache keys
/// embed, rendered through the one shared sim::CanonWriter. Every behavioral
/// field must appear here: two specs with equal canonical text must drive
/// identical control loops.
void append_canonical_governor(sim::CanonWriter& w, const GovernorSpec& spec);

}  // namespace dimetrodon::control
