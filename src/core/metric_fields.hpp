// The Metrics field table: one row per value any Metrics emitter writes —
// the report JSON (metrics_to_json), the result-cache record
// (exec::serialize_metrics / deserialize_metrics), the golden-store
// snapshot (obs::regress::snapshot_metrics) and the sweep CSV (to_csv in
// core/sweep). Emitters loop over the rows or resolve names through them
// and never name a field themselves, so adding a metric means a
// Metrics member, its collect() line and one row here.
#pragma once

#include <string_view>

#include "core/gpgpu_sim.hpp"

namespace arinoc {

/// Where a row appears. A row with neither kMetricReport nor kMetricStored
/// (a derived value) is reached only by name: through the baseline policy
/// list or the sweep CSV column list.
enum MetricFlags : unsigned {
  kMetricReport = 1u << 0,  ///< A member of metrics_to_json.
  kMetricStored = 1u << 1,  ///< A line of the result-cache record.
  kMetricAttr = 1u << 2,    ///< JSON and snapshot only if m.attr_enabled.
};

/// Calls f(name, value, flags) for every row, in report-JSON order. `value`
/// is the field itself — a std::uint64_t, double, bool or std::string
/// lvalue, writable when `m` is non-const — or, for a derived row, a
/// computed prvalue; derived rows are never stored.
template <typename M, typename F>
void for_each_metric(M& m, F&& f) {
  constexpr unsigned kBoth = kMetricReport | kMetricStored;
  constexpr unsigned kAttr = kBoth | kMetricAttr;
  f("cycles", m.cycles, kBoth);
  f("warp_instructions", m.warp_instructions, kBoth);
  f("ipc", m.ipc, kBoth);
  f("request_latency", m.request_latency, kBoth);
  f("reply_latency", m.reply_latency, kBoth);
  f("request_latency_p50", m.request_latency_p50, kBoth);
  f("request_latency_p95", m.request_latency_p95, kBoth);
  f("request_latency_p99", m.request_latency_p99, kBoth);
  f("reply_latency_p50", m.reply_latency_p50, kBoth);
  f("reply_latency_p95", m.reply_latency_p95, kBoth);
  f("reply_latency_p99", m.reply_latency_p99, kBoth);
  f("latency_p99_read_request", m.latency_p99_by_type[0], kBoth);
  f("latency_p99_write_request", m.latency_p99_by_type[1], kBoth);
  f("latency_p99_read_reply", m.latency_p99_by_type[2], kBoth);
  f("latency_p99_write_reply", m.latency_p99_by_type[3], kBoth);
  f("mc_stall_cycles", m.mc_stall_cycles, kBoth);
  f("flits_read_request", m.flits_by_type[0], kBoth);
  f("flits_write_request", m.flits_by_type[1], kBoth);
  f("flits_read_reply", m.flits_by_type[2], kBoth);
  f("flits_write_reply", m.flits_by_type[3], kBoth);
  f("packets_read_request", m.packets_by_type[0], kMetricStored);
  f("packets_write_request", m.packets_by_type[1], kMetricStored);
  f("packets_read_reply", m.packets_by_type[2], kMetricStored);
  f("packets_write_reply", m.packets_by_type[3], kMetricStored);
  f("reply_injection_util", m.reply_injection_util, kBoth);
  f("reply_internal_util", m.reply_internal_util, kBoth);
  f("request_injection_util", m.request_injection_util, kBoth);
  f("request_internal_util", m.request_internal_util, kBoth);
  f("ni_occupancy_pkts", m.ni_occupancy_pkts, kBoth);
  f("l1_hit_rate", m.l1_hit_rate, kBoth);
  f("l2_hit_rate", m.l2_hit_rate, kBoth);
  f("dram_row_hit_rate", m.dram_row_hit_rate, kBoth);
  f("flits_corrupted", m.flits_corrupted, kBoth);
  f("packets_corrupted", m.packets_corrupted, kBoth);
  f("packets_retransmitted", m.packets_retransmitted, kBoth);
  f("packets_recovered", m.packets_recovered, kBoth);
  f("packets_lost", m.packets_lost, kBoth);
  f("duplicates_dropped", m.duplicates_dropped, kBoth);
  f("credits_lost", m.credits_lost, kBoth);
  f("link_stall_events", m.link_stall_events, kBoth);
  f("port_failures", m.port_failures, kBoth);
  // Fraction of retransmitted packets that made it; 1.0 when no faults
  // fired, so "nothing to recover" reads as a perfect record.
  f("recovery_rate",
    m.packets_retransmitted > 0
        ? static_cast<double>(m.packets_recovered) /
              static_cast<double>(m.packets_retransmitted)
        : 1.0,
    0u);
  f("requests_offered", m.requests_offered, kBoth);
  f("requests_completed", m.requests_completed, kBoth);
  f("requests_shed", m.requests_shed, kBoth);
  f("requests_deferred", m.requests_deferred, kBoth);
  f("queue_drops", m.queue_drops, kBoth);
  f("offered_rate", m.offered_rate, kBoth);
  f("goodput", m.goodput, kBoth);
  f("e2e_latency_p50", m.e2e_latency_p50, kBoth);
  f("e2e_latency_p99", m.e2e_latency_p99, kBoth);
  f("e2e_latency_p999", m.e2e_latency_p999, kBoth);
  f("request_latency_p999", m.request_latency_p999, kBoth);
  f("reply_latency_p999", m.reply_latency_p999, kBoth);
  f("degrade_transitions", m.degrade_transitions, kBoth);
  f("cycles_normal", m.cycles_normal, kBoth);
  f("cycles_throttled", m.cycles_throttled, kBoth);
  f("cycles_shedding", m.cycles_shedding, kBoth);
  f("cycles_degraded", m.cycles_throttled + m.cycles_shedding, 0u);
  f("watchdog_pre_trips", m.watchdog_pre_trips, kBoth);
  f("act_noc_link_flits", m.activity.noc_link_flits, kMetricStored);
  f("act_noc_buffer_ops", m.activity.noc_buffer_ops, kMetricStored);
  f("act_noc_crossbar", m.activity.noc_crossbar, kMetricStored);
  f("retx_flits", m.activity.noc_retx_flits, kBoth);
  f("act_dram_activates", m.activity.dram_activates, kMetricStored);
  f("act_dram_accesses", m.activity.dram_accesses, kMetricStored);
  f("act_l2_accesses", m.activity.l2_accesses, kMetricStored);
  f("act_l1_accesses", m.activity.l1_accesses, kMetricStored);
  f("act_core_instructions", m.activity.core_instructions, kMetricStored);
  f("act_cycles", m.activity.cycles, kMetricStored);
  f("energy_dynamic_noc_nj", m.energy.dynamic_noc_nj, kMetricStored);
  f("energy_dynamic_mem_nj", m.energy.dynamic_mem_nj, kMetricStored);
  f("energy_dynamic_core_nj", m.energy.dynamic_core_nj, kMetricStored);
  f("energy_dynamic_nj", m.energy.dynamic_nj(), kMetricReport);
  f("energy_static_nj", m.energy.static_nj, kBoth);
  f("energy_total_nj", m.energy.total_nj(), kMetricReport);
  // Attribution rows last: a record without attribution reports exactly
  // the members it reported before attribution existed.
  f("attr_enabled", m.attr_enabled, kMetricStored);
  f("attr_request_ni_queue", m.request_stage_share[0], kAttr);
  f("attr_request_vc_wait", m.request_stage_share[1], kAttr);
  f("attr_request_sw_wait", m.request_stage_share[2], kAttr);
  f("attr_request_link", m.request_stage_share[3], kAttr);
  f("attr_request_eject", m.request_stage_share[4], kAttr);
  f("attr_request_retx", m.request_stage_share[5], kAttr);
  f("attr_reply_ni_queue", m.reply_stage_share[0], kAttr);
  f("attr_reply_vc_wait", m.reply_stage_share[1], kAttr);
  f("attr_reply_sw_wait", m.reply_stage_share[2], kAttr);
  f("attr_reply_link", m.reply_stage_share[3], kAttr);
  f("attr_reply_eject", m.reply_stage_share[4], kAttr);
  f("attr_reply_retx", m.reply_stage_share[5], kAttr);
  f("attr_violations", m.attr_violations, kAttr);
  f("bottleneck", m.bottleneck, kAttr);
}

/// Calls f(value, flags) for the row called `name`, if there is one.
template <typename F>
void visit_metric(const Metrics& m, std::string_view name, F&& f) {
  for_each_metric(m, [&](std::string_view row, const auto& value,
                         unsigned flags) {
    if (row == name) f(value, flags);
  });
}

}  // namespace arinoc
