// Simulator self-profiler: where does *host* wall-clock time go?
//
// Opt-in (--self-profile): GpgpuSim wraps each step() phase in begin()/end()
// stamps and records, per simulated-cycle epoch,
//  * wall nanoseconds per subsystem phase (cores, MCs, NIs, networks, ...);
//  * activity-driven wake statistics: component-cycles actually stepped vs
//    the always-on capacity, per component group (how much sleeping buys).
//
// Results are written as JSONL (one epoch per line, schema
// "arinoc-selfprof-v1") so long runs stream instead of buffering one huge
// document. This is host-side measurement only: it never touches simulated
// state, so simulation results are identical with or without it (the <5%
// wall-clock budget, measured by perfbench's obs.attr_overhead_pct, covers
// attribution, not this — the profiler is the tool you use to find where
// that budget goes).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace arinoc::obs {

/// One timed phase of GpgpuSim::step(), in execution order.
enum class ProfPhase : std::uint8_t {
  kFrontend = 0,  ///< Degradation FSM + open-loop clients.
  kCores,
  kMcs,
  kInjectNi,
  kNetworks,  ///< Both networks (or request + overlay).
  kEjectNi,
  kSampling,  ///< NI occupancy sampling + telemetry.
  kWatchdog,
};
inline constexpr std::size_t kNumProfPhases = 8;

/// Component groups with wake/sleep accounting.
enum class ProfGroup : std::uint8_t {
  kCores = 0,
  kMcs,
  kInjectNis,
  kEjectNis,
  kRouters,  ///< Both networks' internal router sets.
};
inline constexpr std::size_t kNumProfGroups = 5;

const char* prof_phase_name(ProfPhase p);
const char* prof_group_name(ProfGroup g);

class SelfProfiler {
 public:
  static constexpr Cycle kDefaultEpoch = 4096;

  explicit SelfProfiler(Cycle epoch_cycles = kDefaultEpoch);

  Cycle epoch_cycles() const { return epoch_; }

  void begin(ProfPhase p) {
    t0_[static_cast<std::size_t>(p)] = std::chrono::steady_clock::now();
  }
  void end(ProfPhase p) {
    const std::size_t i = static_cast<std::size_t>(p);
    cur_.wall_ns[i] += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0_[i])
            .count());
    ++cur_.calls[i];
  }

  /// `awake` components of `total` were stepped this cycle (activity mode:
  /// the active-set drains' counts, members woken mid-cycle included;
  /// always-on mode: awake == total).
  void record_wakes(ProfGroup g, std::uint64_t awake, std::uint64_t total) {
    const std::size_t i = static_cast<std::size_t>(g);
    cur_.awake[i] += awake;
    cur_.capacity[i] += total;
  }

  /// Call once per simulated cycle, after the step's phases; closes the
  /// epoch when the boundary is crossed.
  void on_cycle_end(Cycle now);
  /// Flushes the trailing partial epoch (call once after the run).
  void finish(Cycle now);

  struct Epoch {
    std::uint64_t index = 0;
    Cycle start_cycle = 0;
    Cycle end_cycle = 0;  ///< Exclusive.
    std::uint64_t wall_ns[kNumProfPhases] = {};
    std::uint64_t calls[kNumProfPhases] = {};
    std::uint64_t awake[kNumProfGroups] = {};
    std::uint64_t capacity[kNumProfGroups] = {};
  };

  const std::vector<Epoch>& epochs() const { return epochs_; }

  /// One JSON object per epoch, newline-terminated (JSONL), schema
  /// "arinoc-selfprof-v1".
  std::string to_jsonl() const;

  void clear();

 private:
  Cycle epoch_;
  Cycle epoch_start_ = 0;
  bool started_ = false;
  Epoch cur_;
  std::vector<Epoch> epochs_;
  std::chrono::steady_clock::time_point t0_[kNumProfPhases];
};

}  // namespace arinoc::obs
