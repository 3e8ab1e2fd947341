#include "common/config.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <sstream>

namespace arinoc {

bool Config::fault_enabled() const {
  return ((fault_enable_mask & 0x1) != 0 && fault_corrupt_rate > 0.0) ||
         ((fault_enable_mask & 0x2) != 0 && fault_link_stall_rate > 0.0) ||
         ((fault_enable_mask & 0x4) != 0 && fault_port_fail_rate > 0.0) ||
         ((fault_enable_mask & 0x8) != 0 && fault_credit_loss_rate > 0.0);
}

std::string Config::validate() const {
  std::ostringstream err;
  if (mesh_width == 0 || mesh_height == 0) {
    err << "mesh dimensions must be positive (got " << mesh_width << "x"
        << mesh_height << "); ";
  } else if (fabric != "file") {
    // Endpoint budget per generated fabric: MCs live on the WxH grid (mesh,
    // torus, cmesh hubs) or the flattened chiplet grid. File fabrics carry
    // their own MC set; make_fabric cross-checks it against num_mcs.
    // Counts are taken in 64 bits and saturate just past the largest
    // NodeId, so an oversized fabric is reported as such, never wrapped.
    constexpr std::uint64_t kMaxNodes = std::numeric_limits<NodeId>::max();
    const auto times = [](std::uint64_t a, std::uint64_t b) {
      return std::min(a * b, kMaxNodes + 1);
    };
    std::uint64_t grid = times(mesh_width, mesh_height);
    if (fabric == "chiplet") grid = times(times(grid, chiplets_x), chiplets_y);
    // A cmesh adds `c` endpoints under every hub of the grid.
    const std::uint64_t nodes =
        fabric == "cmesh" ? times(grid, 1 + std::uint64_t{cmesh_concentration})
                          : grid;
    if (nodes > kMaxNodes) {
      err << fabric << " fabric of " << mesh_width << "x" << mesh_height;
      if (fabric == "chiplet")
        err << " nodes per chiplet on " << chiplets_x << "x" << chiplets_y
            << " chiplets";
      else if (fabric == "cmesh")
        err << " hubs with " << cmesh_concentration << " endpoints each";
      else
        err << " nodes";
      err << " needs more than " << kMaxNodes << " nodes (the NodeId range); ";
    } else if (num_mcs == 0 || num_mcs >= grid)
      err << "num_mcs must be in (0, nodes): got " << num_mcs << " MCs for "
          << grid << " " << fabric << " nodes; ";
  }
  if (fabric != "mesh" && fabric != "torus" && fabric != "cmesh" &&
      fabric != "chiplet" && fabric != "file")
    err << "unknown fabric '" << fabric
        << "' (expected mesh, torus, cmesh, chiplet, or file); ";
  if (fabric == "file" && topology_file.empty())
    err << "fabric 'file' requires a topology_file path; ";
  if (topology_file.find('\n') != std::string::npos)
    err << "topology_file must not contain newlines; ";
  if (fabric == "cmesh" && cmesh_concentration == 0)
    err << "cmesh_concentration must be >= 1 (got 0); ";
  if (fabric == "chiplet" && std::uint64_t{chiplets_x} * chiplets_y < 2)
    err << "chiplet fabric needs at least 2 chiplets (got " << chiplets_x
        << "x" << chiplets_y << "); ";
  if (num_vcs == 0) err << "num_vcs must be > 0 (got 0 virtual channels); ";
  if (num_vcs > 64)
    err << "num_vcs=" << num_vcs
        << " exceeds 64 (the router keeps one bit per VC of a port); ";
  if (vc_depth_pkts == 0) err << "vc_depth_pkts must be > 0 (got 0); ";
  if (injection_speedup == 0)
    err << "injection_speedup S must be >= 1 (got 0); ";
  if (num_vcs > 0 && injection_speedup > num_vcs)
    err << "injection_speedup S=" << injection_speedup
        << " exceeds num_vcs=" << num_vcs
        << " (Eq.2: at most one switch port per VC is useful); ";
  if (split_queues == 0) err << "split_queues must be > 0 (got 0); ";
  if (num_vcs > 0 && split_queues > num_vcs)
    err << "split_queues=" << split_queues << " exceeds num_vcs=" << num_vcs
        << " (each split queue hard-wires to one VC); ";
  if (priority_levels == 0) err << "priority_levels must be > 0 (got 0); ";
  if (link_width_bits_request == 0 || link_width_bits_reply == 0)
    err << "link widths must be positive (got request="
        << link_width_bits_request << ", reply=" << link_width_bits_reply
        << " bits); ";
  else if (ni_queue_flits < reply_long_flits())
    err << "ni_queue_flits=" << ni_queue_flits
        << " cannot hold one long reply packet (" << reply_long_flits()
        << " flits); ";
  else if (ni_queue_flits < request_long_flits())
    err << "ni_queue_flits=" << ni_queue_flits
        << " cannot hold one long request packet (" << request_long_flits()
        << " flits); ";
  if (line_bytes * 8 != data_payload_bits)
    err << "line_bytes=" << line_bytes << " must equal data_payload_bits/8="
        << data_payload_bits / 8 << "; ";
  if (multiport_ports == 0) err << "multiport_ports must be > 0 (got 0); ";
  if (router_pipeline_stages == 0 || router_pipeline_stages > 4)
    err << "router_pipeline_stages must be in [1, 4] (got "
        << router_pipeline_stages << "); ";
  if (warps_per_core == 0) err << "warps_per_core must be > 0 (got 0); ";
  if (dram_banks == 0) err << "dram_banks must be > 0 (got 0); ";
  if (link_latency == 0) err << "link_latency must be >= 1 cycle (got 0); ";
  if (threads != 1)
    err << "threads must be 1 (got " << threads
        << "): one simulation steps serially; ";

  auto check_rate = [&err](const char* name, double v) {
    if (v < 0.0 || v > 1.0)
      err << name << " must be a probability in [0, 1] (got " << v << "); ";
  };
  check_rate("fault_corrupt_rate", fault_corrupt_rate);
  check_rate("fault_link_stall_rate", fault_link_stall_rate);
  check_rate("fault_port_fail_rate", fault_port_fail_rate);
  check_rate("fault_credit_loss_rate", fault_credit_loss_rate);
  if (fault_link_stall_len == 0)
    err << "fault_link_stall_len must be >= 1 cycle (got 0); ";
  if (rtx_timeout == 0) err << "rtx_timeout must be >= 1 cycle (got 0); ";
  if (rtx_max_retries == 0)
    err << "rtx_max_retries must be >= 1 (got 0; use fault_recovery=false "
           "to disable recovery); ";
  if (watchdog_enabled && watchdog_deadlock_window == 0)
    err << "watchdog_deadlock_window must be >= 1 cycle (got 0); ";
  if (watchdog_enabled && watchdog_livelock_age == 0)
    err << "watchdog_livelock_age must be >= 1 cycle (got 0); ";
  if (pace_spec.find('\n') != std::string::npos)
    err << "pace_spec must not contain newlines; ";
  if (open_loop && pace_spec.empty())
    err << "open_loop requires a pace_spec; ";
  if (pace_scale < 0.0)
    err << "pace_scale must be >= 0 (got " << pace_scale << "); ";
  if (open_loop && ol_queue_cap == 0)
    err << "ol_queue_cap must be >= 1 (got 0); ";
  if (ol_write_frac < 0.0 || ol_write_frac > 1.0)
    err << "ol_write_frac must be in [0, 1] (got " << ol_write_frac << "); ";
  if (admission_enabled) {
    if (adm_rate <= 0.0 || adm_rate > 1.0)
      err << "adm_rate must be in (0, 1] tokens/cycle (got " << adm_rate
          << "); ";
    if (adm_burst == 0) err << "adm_burst must be >= 1 token (got 0); ";
    if (adm_throttle_factor <= 0.0 || adm_throttle_factor > 1.0)
      err << "adm_throttle_factor must be in (0, 1] (got "
          << adm_throttle_factor << "); ";
    auto check_occ = [&err](const char* name, double v) {
      if (v <= 0.0 || v > 1.0)
        err << name << " must be an occupancy fraction in (0, 1] (got " << v
            << "); ";
    };
    check_occ("adm_throttle_occ", adm_throttle_occ);
    check_occ("adm_shed_occ", adm_shed_occ);
    check_occ("adm_recover_occ", adm_recover_occ);
    if (!(adm_recover_occ < adm_throttle_occ &&
          adm_throttle_occ < adm_shed_occ))
      err << "admission thresholds must satisfy recover < throttle < shed "
             "(hysteresis): got recover="
          << adm_recover_occ << " throttle=" << adm_throttle_occ
          << " shed=" << adm_shed_occ << "; ";
    if (adm_dwell == 0) err << "adm_dwell must be >= 1 cycle (got 0); ";
    if (adm_backoff == 0) err << "adm_backoff must be >= 1 cycle (got 0); ";
  }
  return err.str();
}

std::string Config::canonical_string() const {
  std::ostringstream os;
  auto u = [&os](const char* name, std::uint64_t v) {
    os << name << '=' << v << '\n';
  };
  auto d = [&os](const char* name, double v) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%a", v);  // Hexfloat: exact round trip.
    os << name << '=' << buf << '\n';
  };
  u("mesh_width", mesh_width);
  u("mesh_height", mesh_height);
  u("num_mcs", num_mcs);
  u("mc_placement", static_cast<std::uint64_t>(mc_placement));
  // validate() limits `fabric` to a fixed word set and rejects newlines in
  // topology_file, so both stay one-line fields. The *path* is canonical
  // here; the exec result-cache key additionally mixes in an FNV hash of
  // the file contents so editing a topology file invalidates cached cells.
  os << "fabric=" << fabric << '\n';
  os << "topology_file=" << topology_file << '\n';
  u("cmesh_concentration", cmesh_concentration);
  u("chiplets_x", chiplets_x);
  u("chiplets_y", chiplets_y);
  u("serdes_latency", serdes_latency);
  u("link_width_bits_request", link_width_bits_request);
  u("link_width_bits_reply", link_width_bits_reply);
  u("data_payload_bits", data_payload_bits);
  u("link_latency", link_latency);
  u("router_pipeline_stages", router_pipeline_stages);
  u("num_vcs", num_vcs);
  u("vc_depth_pkts", vc_depth_pkts);
  u("routing", static_cast<std::uint64_t>(routing));
  u("non_atomic_vc", non_atomic_vc);
  u("ni_queue_flits", ni_queue_flits);
  u("reply_ni", static_cast<std::uint64_t>(reply_ni));
  u("split_queues", split_queues);
  u("multiport_ports", multiport_ports);
  u("injection_speedup", injection_speedup);
  u("priority_levels", priority_levels);
  u("starvation_threshold", starvation_threshold);
  u("request_side_ari", request_side_ari);
  u("warps_per_core", warps_per_core);
  u("warp_size", warp_size);
  u("simd_width", simd_width);
  u("max_pending_loads", max_pending_loads);
  u("l1_bypass", l1_bypass);
  u("cross_warp_merge", cross_warp_merge);
  u("barrier_interval", barrier_interval);
  u("warps_per_cta", warps_per_cta);
  u("l1_size_bytes", l1_size_bytes);
  u("l1_assoc", l1_assoc);
  u("l2_size_bytes", l2_size_bytes);
  u("l2_assoc", l2_assoc);
  u("line_bytes", line_bytes);
  u("mshr_entries", mshr_entries);
  u("mshr_merges", mshr_merges);
  u("l2_latency", l2_latency);
  u("dram_banks", dram_banks);
  u("dram_queue_depth", dram_queue_depth);
  u("t_rp", t_rp);
  u("t_rc", t_rc);
  u("t_rrd", t_rrd);
  u("t_ras", t_ras);
  u("t_rcd", t_rcd);
  u("t_cl", t_cl);
  u("burst_cycles", burst_cycles);
  u("dram_starvation_cap", dram_starvation_cap);
  d("mem_clock_ratio", mem_clock_ratio);
  u("mc_request_queue", mc_request_queue);
  u("mc_eject_flits_per_cycle", mc_eject_flits_per_cycle);
  u("mc_reply_stage", mc_reply_stage);
  u("warmup_cycles", warmup_cycles);
  u("run_cycles", run_cycles);
  u("seed", seed);
  // activity_driven is deliberately absent: it is a host-side execution
  // strategy with bit-identical results, so caches and golden baselines
  // stay valid across both modes. threads (always 1) is absent too.
  d("fault_corrupt_rate", fault_corrupt_rate);
  d("fault_link_stall_rate", fault_link_stall_rate);
  u("fault_link_stall_len", fault_link_stall_len);
  d("fault_port_fail_rate", fault_port_fail_rate);
  d("fault_credit_loss_rate", fault_credit_loss_rate);
  u("fault_seed", fault_seed);
  u("fault_enable_mask", fault_enable_mask);
  u("fault_recovery", fault_recovery);
  u("rtx_timeout", rtx_timeout);
  u("rtx_max_retries", rtx_max_retries);
  u("watchdog_enabled", watchdog_enabled);
  u("watchdog_deadlock_window", watchdog_deadlock_window);
  u("watchdog_livelock_age", watchdog_livelock_age);
  u("watchdog_audit_interval", watchdog_audit_interval);
  u("open_loop", open_loop);
  // validate() rejects newlines in pace_spec, so one line stays one field.
  // Note: for file-driven specs the *path* is canonical, not the file
  // contents — file-paced runs should not rely on the result cache.
  os << "pace_spec=" << pace_spec << '\n';
  d("pace_scale", pace_scale);
  u("ol_queue_cap", ol_queue_cap);
  d("ol_write_frac", ol_write_frac);
  u("admission_enabled", admission_enabled);
  d("adm_rate", adm_rate);
  u("adm_burst", adm_burst);
  d("adm_throttle_factor", adm_throttle_factor);
  d("adm_throttle_occ", adm_throttle_occ);
  d("adm_shed_occ", adm_shed_occ);
  d("adm_recover_occ", adm_recover_occ);
  u("adm_dwell", adm_dwell);
  u("adm_retry_max", adm_retry_max);
  u("adm_backoff", adm_backoff);
  return os.str();
}

std::string Config::table1() const {
  std::ostringstream os;
  os << "Table I. Key Parameters for Evaluation\n"
     << "  Compute Nodes          : " << num_ccs() << "\n"
     << "  Memory Controllers     : " << num_mcs << ", FR-FCFS\n"
     << "  Warp Size              : " << warp_size << "\n"
     << "  SIMD Pipeline Width    : " << simd_width << "\n"
     << "  Warps / Core           : " << warps_per_core << "\n"
     << "  L1 Cache Size / Core   : " << l1_size_bytes / 1024 << "KB\n"
     << "  L2 Cache Size / MC     : " << l2_size_bytes / 1024 << "KB\n"
     << "  Warp Scheduling        : Greedy-then-oldest\n"
     << "  MC placement           : Diamond\n"
     << "  GDDR5 Timing           : tRP=" << t_rp << " tRC=" << t_rc
     << " tRRD=" << t_rrd << " tRAS=" << t_ras << " tRCD=" << t_rcd
     << " tCL=" << t_cl << "\n"
     << "  Memory Clock           : " << mem_clock_ratio << " GHz (GTX980)\n"
     << "  Topology               : " << [this] {
          std::ostringstream t;
          const std::string dims =
              std::to_string(mesh_width) + "x" + std::to_string(mesh_height);
          if (fabric == "torus") t << "2D Torus " << dims;
          else if (fabric == "cmesh")
            t << "CMesh " << dims << " (x" << cmesh_concentration << ")";
          else if (fabric == "chiplet")
            t << "Chiplet " << chiplets_x << "x" << chiplets_y << " of "
              << dims << " (serdes +" << serdes_latency << "cy)";
          else if (fabric == "file") t << "File " << topology_file;
          else t << "2D Mesh " << dims;
          return t.str();
        }() << "\n"
     << "  Routing                : "
     << (routing == RoutingAlgo::kXY ? "XY" : "Min. adaptive") << "\n"
     << "  Interconnect/L2 Clock  : 1 GHz\n"
     << "  Virtual channels       : " << num_vcs << " per port, "
     << vc_depth_pkts << " pkt per VC\n"
     << "  Allocator              : Separable Input First\n"
     << "  Link bandwidth         : " << link_width_bits_reply
     << " bit/cycle\n"
     << "  NI injection queue     : " << ni_queue_flits << " flits\n";
  return os.str();
}

Config apply_scheme(Config base, Scheme scheme) {
  // All evaluated schemes build on the enhanced baseline (paper §4.1 uses it
  // "to avoid giving unfair advantage to our proposed design").
  base.reply_ni = NiArch::kEnhanced;
  base.injection_speedup = 1;
  base.priority_levels = 1;
  switch (scheme) {
    case Scheme::kRawBaseline:
      base.reply_ni = NiArch::kBaseline;
      base.routing = RoutingAlgo::kXY;
      break;
    case Scheme::kXYBaseline:
      base.routing = RoutingAlgo::kXY;
      break;
    case Scheme::kXYARI:
      base.routing = RoutingAlgo::kXY;
      base.reply_ni = NiArch::kSplitQueue;
      base.injection_speedup = std::min(4u, base.num_vcs);
      base.split_queues = std::min(4u, base.num_vcs);
      base.priority_levels = 2;
      break;
    case Scheme::kAdaBaseline:
      base.routing = RoutingAlgo::kMinAdaptive;
      break;
    case Scheme::kAdaMultiPort:
      base.routing = RoutingAlgo::kMinAdaptive;
      base.reply_ni = NiArch::kMultiPort;
      break;
    case Scheme::kAdaARI:
      base.routing = RoutingAlgo::kMinAdaptive;
      base.reply_ni = NiArch::kSplitQueue;
      base.injection_speedup = std::min(4u, base.num_vcs);
      base.split_queues = std::min(4u, base.num_vcs);
      base.priority_levels = 2;
      break;
    case Scheme::kAccSupply:
      base.routing = RoutingAlgo::kMinAdaptive;
      base.reply_ni = NiArch::kSplitQueue;
      base.split_queues = std::min(4u, base.num_vcs);
      break;
    case Scheme::kAccConsume:
      base.routing = RoutingAlgo::kMinAdaptive;
      base.injection_speedup = std::min(4u, base.num_vcs);
      break;
    case Scheme::kAccBothNoPrio:
      base.routing = RoutingAlgo::kMinAdaptive;
      base.reply_ni = NiArch::kSplitQueue;
      base.split_queues = std::min(4u, base.num_vcs);
      base.injection_speedup = std::min(4u, base.num_vcs);
      break;
  }
  return base;
}

const char* placement_name(McPlacement p) {
  switch (p) {
    case McPlacement::kDiamond: return "diamond";
    case McPlacement::kTopBottom: return "top-bottom";
    case McPlacement::kColumn: return "column";
  }
  return "?";
}

const char* scheme_name(Scheme scheme) {
  switch (scheme) {
    case Scheme::kXYBaseline: return "XY-Baseline";
    case Scheme::kXYARI: return "XY-ARI";
    case Scheme::kAdaBaseline: return "Ada-Baseline";
    case Scheme::kAdaMultiPort: return "Ada-MultiPort";
    case Scheme::kAdaARI: return "Ada-ARI";
    case Scheme::kAccSupply: return "Acc-Supply";
    case Scheme::kAccConsume: return "Acc-Consume";
    case Scheme::kAccBothNoPrio: return "Acc-Both-NoPriority";
    case Scheme::kRawBaseline: return "Raw-Baseline";
  }
  return "?";
}

}  // namespace arinoc
