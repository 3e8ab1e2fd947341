// Periodic telemetry sampler (observability subsystem, layer 2).
//
// A TelemetrySampler turns the simulator's end-of-run aggregates into a
// time series: every `interval` cycles the owner (GpgpuSim) computes one
// TelemetrySample over the window just ended — rates from counter deltas,
// occupancies as instantaneous probes — and pushes it here. The sampler
// itself is passive storage plus a JSONL exporter (one object per line), so
// it never perturbs simulation state and costs nothing when no interval is
// configured.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace arinoc::obs {

/// One telemetry window. Rates are per-cycle over the window; occupancy
/// fields are instantaneous probes taken at the window's closing cycle.
struct TelemetrySample {
  Cycle cycle = 0;   ///< Cycle at which the window closed.
  Cycle window = 0;  ///< Cycles covered (last window may be shorter).

  double ipc = 0.0;  ///< Warp instructions retired / window, all cores.

  double request_inject_rate = 0.0;   ///< Packets entering the request net.
  double request_deliver_rate = 0.0;  ///< Packets delivered by it.
  double reply_inject_rate = 0.0;     ///< Packets entering the reply fabric.
  double reply_deliver_rate = 0.0;    ///< Packets delivered by it.

  double request_link_util = 0.0;  ///< Flit-movements / (links * window).
  double reply_link_util = 0.0;

  double ni_occupancy_pkts = 0.0;          ///< Reply inject-NI packets, now.
  std::uint64_t buffered_flits = 0;        ///< Flits in router VCs, both nets.
  double mc_stall_rate = 0.0;              ///< MC stall cycles / (MCs * window).
  std::uint64_t live_packets = 0;          ///< Outstanding memory transactions.
  std::uint64_t retransmits = 0;           ///< Retransmissions this window.
  std::uint64_t flits_corrupted = 0;       ///< Corruption events this window.
  int degrade_state = 0;                   ///< DegradeState at window close.
  std::uint64_t requests_shed = 0;         ///< Requests shed this window.
  std::uint64_t pre_trip_warnings = 0;     ///< Watchdog warnings this window.
};

class TelemetrySampler {
 public:
  explicit TelemetrySampler(Cycle interval) : interval_(interval) {}

  Cycle interval() const { return interval_; }

  void push(const TelemetrySample& s) { samples_.push_back(s); }
  void clear() { samples_.clear(); }

  const std::vector<TelemetrySample>& samples() const { return samples_; }

  /// All samples, one JSON object per line (JSONL).
  std::string to_jsonl() const;
  /// The most recent sample as a single JSON line; "" when empty.
  std::string last_jsonl() const;

 private:
  Cycle interval_;
  std::vector<TelemetrySample> samples_;
};

}  // namespace arinoc::obs
