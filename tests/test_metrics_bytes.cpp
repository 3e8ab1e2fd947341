// Byte pins for every Metrics emitter: the report JSON, the sweep CSV and
// the baseline snapshot. A fixed record with every field distinct is
// rendered with attribution off and on, and the exact bytes are compared
// with literals, so any change to a key, a column, an order or a number
// format fails here before it reaches the golden store or a figure script.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/report.hpp"
#include "core/sweep.hpp"
#include "obs/regress/baseline.hpp"

namespace arinoc {
namespace {

// Every field distinct. Counts step by 11 and values by 0.8125 (exact in
// binary, integral every 16th step); a few fields take special values to
// pin the formatting edges: 0.1 * 3 (not exact), a tiny 1.5e-7 and a count
// past 1e15, which the JSON prints through %.6g but the CSV in full.
Metrics pinned_metrics(bool attr) {
  Metrics m;
  std::uint64_t n = 100;
  const auto u = [&n] { return n += 11; };
  double x = 0.0;
  const auto d = [&x] { return x += 0.8125; };
  m.cycles = u();
  m.warp_instructions = u();
  m.ipc = 0.1 * 3;
  m.request_latency = 1.5e-7;
  m.reply_latency = d();
  m.request_latency_p50 = d();
  m.request_latency_p95 = d();
  m.request_latency_p99 = d();
  m.reply_latency_p50 = d();
  m.reply_latency_p95 = d();
  m.reply_latency_p99 = d();
  for (double& v : m.latency_p99_by_type) v = d();
  m.mc_stall_cycles = u();
  for (std::uint64_t& v : m.flits_by_type) v = u();
  for (std::uint64_t& v : m.packets_by_type) v = u();
  m.reply_injection_util = d();
  m.reply_internal_util = d();
  m.request_injection_util = d();
  m.request_internal_util = d();
  m.ni_occupancy_pkts = d();
  m.l1_hit_rate = d();
  m.l2_hit_rate = d();
  m.dram_row_hit_rate = d();
  m.flits_corrupted = u();
  m.packets_corrupted = u();
  m.packets_retransmitted = u();
  m.packets_recovered = u();
  m.packets_lost = u();
  m.duplicates_dropped = u();
  m.credits_lost = u();
  m.link_stall_events = u();
  m.port_failures = u();
  m.requests_offered = u();
  m.requests_completed = u();
  m.requests_shed = 1234567890123456789ull;
  m.requests_deferred = u();
  m.queue_drops = u();
  m.offered_rate = d();
  m.goodput = d();
  m.e2e_latency_p50 = d();
  m.e2e_latency_p99 = d();
  m.e2e_latency_p999 = d();
  m.request_latency_p999 = d();
  m.reply_latency_p999 = d();
  m.degrade_transitions = u();
  m.cycles_normal = u();
  m.cycles_throttled = u();
  m.cycles_shedding = u();
  m.watchdog_pre_trips = u();
  m.attr_enabled = attr;
  for (double& v : m.request_stage_share) v = d();
  for (double& v : m.reply_stage_share) v = d();
  m.attr_violations = u();
  m.bottleneck = "reply ni_queue at mc21, \"61.0%\"";
  m.activity.noc_link_flits = u();
  m.activity.noc_buffer_ops = u();
  m.activity.noc_crossbar = u();
  m.activity.noc_retx_flits = u();
  m.activity.dram_activates = u();
  m.activity.dram_accesses = u();
  m.activity.l2_accesses = u();
  m.activity.l1_accesses = u();
  m.activity.core_instructions = u();
  m.activity.cycles = u();
  m.energy.dynamic_noc_nj = d();
  m.energy.dynamic_mem_nj = d();
  m.energy.dynamic_core_nj = d();
  m.energy.static_nj = d();
  return m;
}

std::string csv_of(const Metrics& m) {
  exec::CellResult cell;
  cell.point = "vc=2";
  cell.scheme = "Ada-ARI";
  cell.benchmark = "bfs";
  cell.fabric = "mesh";
  cell.metrics = m;
  return to_csv({cell});
}

std::string snapshot_of(const Metrics& m) {
  std::string out;
  for (const auto& [name, value] : obs::regress::snapshot_metrics(m)) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    out += name + "=" + buf + "\n";
  }
  return out;
}

// Members shared by both JSON pins, from "cycles" to "energy_total_nj".
const std::string kJsonBody = R"("cycles": 111,
  "warp_instructions": 122,
  "ipc": 0.3,
  "request_latency": 1.5e-07,
  "reply_latency": 0.8125,
  "request_latency_p50": 1.625,
  "request_latency_p95": 2.4375,
  "request_latency_p99": 3.25,
  "reply_latency_p50": 4.0625,
  "reply_latency_p95": 4.875,
  "reply_latency_p99": 5.6875,
  "latency_p99_read_request": 6.5,
  "latency_p99_write_request": 7.3125,
  "latency_p99_read_reply": 8.125,
  "latency_p99_write_reply": 8.9375,
  "mc_stall_cycles": 133,
  "flits_read_request": 144,
  "flits_write_request": 155,
  "flits_read_reply": 166,
  "flits_write_reply": 177,
  "reply_injection_util": 9.75,
  "reply_internal_util": 10.5625,
  "request_injection_util": 11.375,
  "request_internal_util": 12.1875,
  "ni_occupancy_pkts": 13,
  "l1_hit_rate": 13.8125,
  "l2_hit_rate": 14.625,
  "dram_row_hit_rate": 15.4375,
  "flits_corrupted": 232,
  "packets_corrupted": 243,
  "packets_retransmitted": 254,
  "packets_recovered": 265,
  "packets_lost": 276,
  "duplicates_dropped": 287,
  "credits_lost": 298,
  "link_stall_events": 309,
  "port_failures": 320,
  "requests_offered": 331,
  "requests_completed": 342,
  "requests_shed": 1.23457e+18,
  "requests_deferred": 353,
  "queue_drops": 364,
  "offered_rate": 16.25,
  "goodput": 17.0625,
  "e2e_latency_p50": 17.875,
  "e2e_latency_p99": 18.6875,
  "e2e_latency_p999": 19.5,
  "request_latency_p999": 20.3125,
  "reply_latency_p999": 21.125,
  "degrade_transitions": 375,
  "cycles_normal": 386,
  "cycles_throttled": 397,
  "cycles_shedding": 408,
  "watchdog_pre_trips": 419,
  "retx_flits": 474,
  "energy_dynamic_nj": 97.5,
  "energy_static_nj": 34.125,
  "energy_total_nj": 131.625)";

TEST(MetricsBytes, ReportJsonPinnedWithAndWithoutAttribution) {
  EXPECT_EQ(metrics_to_json(pinned_metrics(false)),
            "{\n  " + kJsonBody + "\n}");
  EXPECT_EQ(metrics_to_json(pinned_metrics(true), 2, "{\"p\": 1}"),
            "{\n  \"provenance\": {\"p\": 1},\n  " + kJsonBody + R"(,
  "attr_request_ni_queue": 21.9375,
  "attr_request_vc_wait": 22.75,
  "attr_request_sw_wait": 23.5625,
  "attr_request_link": 24.375,
  "attr_request_eject": 25.1875,
  "attr_request_retx": 26,
  "attr_reply_ni_queue": 26.8125,
  "attr_reply_vc_wait": 27.625,
  "attr_reply_sw_wait": 28.4375,
  "attr_reply_link": 29.25,
  "attr_reply_eject": 30.0625,
  "attr_reply_retx": 30.875,
  "attr_violations": 430,
  "bottleneck": "reply ni_queue at mc21, \"61.0%\""
})");
}

TEST(MetricsBytes, SweepCsvPinnedWithAndWithoutAttribution) {
  const std::string header =
      "point,scheme,benchmark,cycles,ipc,request_latency,reply_latency,"
      "mc_stall_cycles,reply_injection_util,reply_internal_util,"
      "l1_hit_rate,l2_hit_rate,dram_row_hit_rate,energy_total_nj,"
      "reply_latency_p50,reply_latency_p95,reply_latency_p99,"
      "reply_latency_p999,offered_rate,goodput,requests_shed,"
      "e2e_latency_p99,cycles_degraded,fabric,bottleneck,error\n";
  const std::string row =
      "vc=2,Ada-ARI,bfs,111,0.3,1.5e-07,0.8125,133,9.75,10.5625,13.8125,"
      "14.625,15.4375,131.625,4.0625,4.875,5.6875,21.125,16.25,17.0625,"
      "1234567890123456789,18.6875,805,mesh,"
      "\"reply ni_queue at mc21, \"\"61.0%\"\"\",\n";
  // The CSV carries no attribution gate: both records render the same row.
  EXPECT_EQ(csv_of(pinned_metrics(false)), header + row);
  EXPECT_EQ(csv_of(pinned_metrics(true)), header + row);
}

TEST(MetricsBytes, BaselineSnapshotPinnedWithAndWithoutAttribution) {
  const std::string tracked =
      "cycles=111\n"
      "warp_instructions=122\n"
      "ipc=0.30000000000000004\n"
      "request_latency=1.4999999999999999e-07\n"
      "reply_latency=0.8125\n"
      "request_latency_p50=1.625\n"
      "request_latency_p95=2.4375\n"
      "request_latency_p99=3.25\n"
      "request_latency_p999=20.3125\n"
      "reply_latency_p50=4.0625\n"
      "reply_latency_p95=4.875\n"
      "reply_latency_p99=5.6875\n"
      "reply_latency_p999=21.125\n"
      "e2e_latency_p50=17.875\n"
      "e2e_latency_p99=18.6875\n"
      "e2e_latency_p999=19.5\n"
      "mc_stall_cycles=133\n"
      "energy_total_nj=131.625\n"
      "goodput=17.0625\n"
      "offered_rate=16.25\n"
      "recovery_rate=1.0433070866141732\n";
  EXPECT_EQ(snapshot_of(pinned_metrics(false)), tracked);
  EXPECT_EQ(snapshot_of(pinned_metrics(true)),
            tracked +
                "attr_request_ni_queue=21.9375\n"
                "attr_request_vc_wait=22.75\n"
                "attr_request_sw_wait=23.5625\n"
                "attr_request_link=24.375\n"
                "attr_request_eject=25.1875\n"
                "attr_request_retx=26\n"
                "attr_reply_ni_queue=26.8125\n"
                "attr_reply_vc_wait=27.625\n"
                "attr_reply_sw_wait=28.4375\n"
                "attr_reply_link=29.25\n"
                "attr_reply_eject=30.0625\n"
                "attr_reply_retx=30.875\n");
}

}  // namespace
}  // namespace arinoc
