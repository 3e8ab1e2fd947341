// Counter dump (observability subsystem, layer 3).
//
// A CounterDump is a plain list of named values read from the simulator at
// one instant (GpgpuSim::counters() fills it at call time, so an unused dump
// costs nothing per cycle). Three value kinds mirror the usual metric
// taxonomy:
//  * counter   — uint64 events since reset,
//  * gauge     — instantaneous double (occupancy, depth, rate), `%.6g`,
//  * histogram — a LogHistogram snapshot (count/mean/p50/p95/p99/max).
//
// to_json() emits one object keyed by metric name, sorted across kinds,
// suitable for dumping alongside Metrics.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "common/stats.hpp"

namespace arinoc::obs {

class CounterDump {
 public:
  /// Each name is added once; the value is formatted on the spot.
  void add(const std::string& name, std::uint64_t value);
  void add(const std::string& name, double value);
  void add(const std::string& name, const LogHistogram& h);

  /// Every entry as one JSON object, keys sorted. Counters and gauges are
  /// plain numbers; histograms expand to an object with count, mean, p50,
  /// p95, p99, and max.
  std::string to_json() const;

 private:
  // Name -> JSON value text; std::map keeps the dump sorted by name.
  std::map<std::string, std::string> entries_;
};

}  // namespace arinoc::obs
