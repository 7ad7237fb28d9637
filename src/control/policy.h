// Pluggable autoscaling policies consumed by the Controller.
//
// A ScalePolicy maps the live signal snapshot (queue depth, SLO-attainment
// EWMA, KV pressure, load forecast) to a desired device count; the Controller
// clamps the answer to [min_devices, available] and re-deploys the engine
// when the resulting device set changes.  Policies are deliberately pure
// state machines over ControlSignals so the same policy drives every
// engine and stays deterministic under any sweep thread count.
//
//   static     never changes the target -- the deployment only moves when
//              churn forces it (the paper's fixed-parallelism posture)
//   threshold  hysteresis bands on queue depth and KV pressure, with
//              optional forecast-following (classic reactive autoscaling)
//   slo        targets an SLO-attainment level: scale out below the band,
//              reclaim devices above it when pressure is gone
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "common/units.h"

namespace hetis::control {

/// Live snapshot the Controller derives from the run-event bus and the
/// engine's metric taps: what the policies read, plus the counts
/// (in_flight, active_devices, degraded_devices, now) the audit trail
/// uses to explain a decision.
struct ControlSignals {
  Seconds now = 0;
  std::size_t queue_depth = 0;  // arrivals not yet prefilled, plus requests
                                // preempted after prefill and not yet
                                // re-prefilled
  std::size_t in_flight = 0;    // arrived - finished
  double slo_attainment = 1.0;  // EWMA of per-finish SLO pass/fail
  double kv_pressure = 0;       // engine worst-instance KV fill fraction
  double load_forecast = 1.0;   // last kLoadShift factor (1 = nominal)
  int active_devices = 0;
  int available_devices = 0;
  // Devices whose speed ratio or link scale sits below the controller's
  // straggler threshold right now (ControlSpec::straggler_threshold).
  int degraded_devices = 0;
};

class ScalePolicy {
 public:
  virtual ~ScalePolicy() = default;
  virtual std::string name() const = 0;
  /// Desired device count for the next control interval.  `current_target`
  /// is the previous answer (clamped); the Controller clamps the return
  /// value to [min_devices, available_devices].
  virtual int target_devices(const ControlSignals& s, int current_target) = 0;
};

/// Threshold-hysteresis knobs.  Scale-up triggers when EITHER pressure
/// signal exceeds its up-threshold; scale-down requires BOTH below their
/// (strictly lower) down-thresholds -- the gap is the hysteresis band that
/// prevents flapping.
struct ThresholdPolicyConfig {
  double up_queue = 8;     // queue depth above this -> scale up
  double up_kv = 0.85;     // KV pressure above this -> scale up
  double down_queue = 1;   // scale down only when queue below this...
  double down_kv = 0.5;    // ...and KV pressure below this
  int step = 1;            // devices added/removed per decision
  bool follow_forecast = true;  // scale to max ahead of a >1x load shift
};

/// SLO-attainment target knobs.
struct SloPolicyConfig {
  double target = 0.9;   // desired attainment level
  double margin = 0.05;  // dead band around the target
  int step = 1;
};

/// Constructs a policy by name ("static" | "threshold" | "slo").  Throws
/// std::out_of_range listing the known names otherwise.
std::unique_ptr<ScalePolicy> make_policy(const std::string& name,
                                         const ThresholdPolicyConfig& threshold = {},
                                         const SloPolicyConfig& slo = {});

/// Names accepted by make_policy, sorted.
std::vector<std::string> policy_names();

}  // namespace hetis::control
