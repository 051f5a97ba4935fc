// Adaptive topology controller (the tentpole of the reconfiguration
// work): closes the loop between the paper's Sec.-VI selection heuristic
// and the live reconfiguration path.
//
// At workload phase boundaries the application calls
// maybe_reconfigure(), which samples the counters accumulated since the
// previous boundary — CHT-mediated request volume, atomic-op skew from
// the OpTracer (the hot-spot signature of DFT-style counters), forward
// depth, and credit-blocked time — folds them into a WorkloadProfile,
// and asks core::recommend_topology() whether the current topology is
// still the right one. When the recommendation disagrees with the
// installed kind, the controller triggers Runtime::reconfigure().
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "armci/runtime.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace vtopo::armci {

struct AdaptiveConfig {
  /// Per-node buffer budget handed to the recommender (MB).
  double buffer_budget_mb = 256.0;
  /// Latency sensitivity handed to the recommender; phased GAS codes
  /// sit toward the blocking fine-grained end.
  double latency_sensitivity = 0.7;
  /// Minimum CHT-mediated requests in a window before the controller
  /// trusts the sample enough to switch.
  std::uint64_t min_window_requests = 32;

  // --- QoS management (see ArmciParams::qos) -------------------------
  /// When true, each boundary also switches QoS for the next phase: on
  /// (class-weighted CHT dequeue) for hot-spotted phases (skew >=
  /// qos_hotspot_threshold), off (pure FIFO, zero scheduling overhead)
  /// for everything else. The switch is applied through the serial
  /// phase (race-free under sharding), so it lands before the next
  /// phase's traffic.
  bool manage_qos = false;
  /// Skew at or above which the upcoming phase counts as hot-spotted.
  double qos_hotspot_threshold = 0.25;
};

class AdaptiveController {
 public:
  /// Counter deltas over one sampling window (phase).
  struct Sample {
    std::uint64_t window_requests = 0;  ///< CHT-mediated requests
    std::uint64_t window_atomics = 0;   ///< fetch-&-add + swap + lock
    double hotspot_fraction = 0.0;      ///< atomics / requests
    double avg_forward_depth = 0.0;     ///< forwards per request
    sim::TimeNs credit_blocked_ns = 0;  ///< sender stall in the window
    std::uint64_t window_retries = 0;   ///< watchdog re-issues (failure
                                        ///< detection feed)
  };

  /// Enables the runtime's OpTracer (per-kind series only) so per-kind
  /// op counts are observable at the next boundary.
  explicit AdaptiveController(Runtime& rt, AdaptiveConfig cfg = {});

  /// Phase-boundary hook: sample the window, consult the recommender,
  /// and reconfigure when it names a different kind. Returns true when
  /// a reconfiguration was executed. Call from exactly one process
  /// (inside a barrier pair) — reconfigure() quiesces globally.
  ///
  /// The just-closed window describes the *previous* phase; for
  /// strictly alternating phases that is exactly the wrong predictor of
  /// the next one. `next_hotspot` lets the application announce the
  /// upcoming phase's skew (e.g. from its own memory of the last
  /// same-kind phase); when provided it overrides the measured window
  /// skew and the min-traffic gate.
  [[nodiscard]] sim::Co<bool> maybe_reconfigure(
      std::optional<double> next_hotspot = std::nullopt);

  [[nodiscard]] const Sample& last_sample() const { return last_sample_; }
  /// One entry per boundary decision, e.g. "phase window: hotspot=0.48
  /// -> mfcg (switched)".
  [[nodiscard]] const std::vector<std::string>& decisions() const {
    return decisions_;
  }
  [[nodiscard]] int switches() const { return switches_; }
  /// Boundaries at which QoS was switched (manage_qos only).
  [[nodiscard]] int qos_retunes() const { return qos_retunes_; }
  /// Whether the controller currently has QoS switched on.
  [[nodiscard]] bool qos_hot_active() const { return qos_hot_active_; }

 private:
  [[nodiscard]] Sample take_sample();
  /// Switch QoS on or off for the upcoming phase from `skew`.
  void retune_qos(double skew, std::ostringstream& decision);

  Runtime* rt_;
  AdaptiveConfig cfg_;
  // Counter snapshots at the previous boundary.
  std::uint64_t prev_requests_ = 0;
  std::uint64_t prev_forwards_ = 0;
  std::uint64_t prev_atomics_ = 0;
  sim::TimeNs prev_blocked_ = 0;
  std::uint64_t prev_retries_ = 0;
  Sample last_sample_{};
  std::vector<std::string> decisions_;
  int switches_ = 0;
  int qos_retunes_ = 0;
  bool qos_hot_active_ = false;
};

}  // namespace vtopo::armci
