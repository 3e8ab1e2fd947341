// NI-level admission control with hysteretic graceful degradation
// (overload robustness layer).
//
// The paper's bottleneck is the reply network: once MC reply-injection
// queues back up, every additional admitted request makes the cliff worse —
// the request costs reply bandwidth the fabric no longer has. Admission
// therefore sheds *request-side* traffic first, keeping reply injection
// protected: a token bucket per CC request NI bounds the admitted rate, and
// a global degradation state machine driven by reply-NI queue occupancy
// (plus the watchdog's pre-trip warning) moves the system through
//
//      NORMAL  -->  THROTTLED  -->  SHEDDING
//        ^______________|_______________|        (hysteretic recovery)
//
//  * NORMAL     — the bucket refills at the full configured rate.
//  * THROTTLED  — refill is scaled by `throttle_factor`; new requests that
//                 find the bucket empty are *deferred* (bounded
//                 retry/backoff at the caller).
//  * SHEDDING   — no refill; new requests are *shed* outright (the caller
//                 drops them and accounts the loss). Reply traffic is never
//                 gated.
//
// Transitions are hysteretic: escalation thresholds sit above the recovery
// threshold and every transition must dwell `dwell` cycles before the next,
// so occupancy noise around a threshold cannot flap the state. All
// counters/time-in-state accounting lives here so Metrics, telemetry and the
// counter dump read one source of truth.
//
// Admission disabled (the default) constructs nothing: GpgpuSim keeps a
// null controller and every hot path stays a pointer test — bit-identical
// to a build without this file.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace arinoc {

enum class DegradeState : int { kNormal = 0, kThrottled = 1, kShedding = 2 };

const char* degrade_state_name(DegradeState s);

/// Tuning knobs (populated from Config by GpgpuSim).
struct AdmissionParams {
  double rate = 0.25;             ///< Tokens/cycle/CC in NORMAL.
  std::uint32_t burst = 8;        ///< Bucket depth (tokens).
  double throttle_factor = 0.5;   ///< Refill scale in THROTTLED.
  double throttle_occ = 0.60;     ///< Reply-NI occupancy to enter THROTTLED.
  double shed_occ = 0.85;         ///< Occupancy to enter SHEDDING.
  double recover_occ = 0.35;      ///< Occupancy to step back down.
  Cycle dwell = 256;              ///< Min cycles between transitions.
};

/// What the gate told the caller to do with one request.
enum class AdmissionDecision { kAdmit, kDefer, kShed };

/// Global degradation state machine. update() is called once per cycle with
/// the current reply-side pressure signal; state() is what every gate and
/// observer reads.
class DegradationFsm {
 public:
  explicit DegradationFsm(const AdmissionParams& p) : p_(p) {}

  /// Advances one cycle. `reply_occ` is the mean reply-NI queue occupancy
  /// as a fraction of capacity; `pre_trip` is the watchdog's early-warning
  /// signal (treated as max-severity pressure: it escalates one level per
  /// dwell period even when occupancy alone would not).
  void update(Cycle now, double reply_occ, bool pre_trip);

  DegradeState state() const { return state_; }
  std::uint64_t transitions() const { return transitions_; }
  Cycle cycles_in(DegradeState s) const {
    return cycles_in_[static_cast<std::size_t>(s)];
  }
  /// Cycles spent in any non-NORMAL state.
  Cycle degraded_cycles() const {
    return cycles_in_[1] + cycles_in_[2];
  }
  void reset_stats() {
    transitions_ = 0;
    cycles_in_[0] = cycles_in_[1] = cycles_in_[2] = 0;
  }

 private:
  void transition(DegradeState next, Cycle now);

  AdmissionParams p_;
  DegradeState state_ = DegradeState::kNormal;
  Cycle entered_at_ = 0;
  std::uint64_t transitions_ = 0;
  Cycle cycles_in_[3] = {0, 0, 0};
};

/// Per-CC token bucket consulted on every request-side injection attempt.
/// Fixed-point (Q32) refill so the admitted schedule is exactly
/// reproducible, matching the repo's ClockRatio discipline.
class AdmissionGate {
 public:
  AdmissionGate(const AdmissionParams& p, const DegradationFsm* fsm);

  /// One admission decision for a new request at `now`. Refills the bucket
  /// lazily for the cycles elapsed since the last call, at the rate the
  /// FSM state dictates, then tries to take a token. Counters are updated
  /// here; callers only act on the verdict.
  AdmissionDecision request(Cycle now);

  /// Returns the token of the most recent kAdmit verdict and reverses its
  /// accounting. Call when the admitted request could not actually enter
  /// the NI this cycle (injection backpressure), so admission only charges
  /// requests that reached the fabric.
  void refund_admit();

  std::uint64_t admitted() const { return admitted_; }
  std::uint64_t deferred() const { return deferred_; }
  std::uint64_t shed() const { return shed_; }
  void reset_stats() { admitted_ = deferred_ = shed_ = 0; }

 private:
  void refill(Cycle now);

  AdmissionParams p_;
  const DegradationFsm* fsm_;
  std::uint64_t rate_q32_;           ///< NORMAL refill rate, Q32.
  std::uint64_t throttled_rate_q32_; ///< THROTTLED refill rate, Q32.
  std::uint64_t tokens_q32_;         ///< Current bucket level, Q32.
  std::uint64_t cap_q32_;            ///< Bucket depth, Q32.
  Cycle last_refill_ = 0;

  std::uint64_t admitted_ = 0;
  std::uint64_t deferred_ = 0;
  std::uint64_t shed_ = 0;
};

}  // namespace arinoc
