// Central configuration: every Table-I parameter of the paper plus the ARI
// scheme knobs. A Config fully determines one simulation run (together with
// the workload and the seed).
#pragma once

#include <cstdint>
#include <string>

#include "common/types.hpp"

namespace arinoc {

/// Routing algorithm used by a network (paper §6.2: XY and minimal adaptive).
enum class RoutingAlgo { kXY, kMinAdaptive };

/// Network-interface architecture at MC nodes on the reply network.
enum class NiArch {
  kBaseline,    ///< Narrow MC->NI link, single queue (GPGPU-Sim default).
  kEnhanced,    ///< Wide MC->NI/NI->queue links, single queue (paper §4.1
                ///< "enhanced baseline"; narrow NI->router link AB).
  kSplitQueue,  ///< ARI supply: split queues + per-queue narrow links to VCs.
  kMultiPort,   ///< [3]-style: multiple router injection ports, single queue.
};

/// Memory-controller placement policies. kDiamond (default, Table I) is the
/// Abts et al. staggered-interior placement; kTopBottom models the
/// traditional GPU layout with MCs on the top/bottom edge rows; kColumn
/// stacks them in the two center columns (a deliberately poor layout used
/// as an ablation reference).
enum class McPlacement { kDiamond, kTopBottom, kColumn };

const char* placement_name(McPlacement p);

/// Full parameter set for one simulated GPGPU + NoC instance.
struct Config {
  // ---- Topology (Table I) ----
  std::uint32_t mesh_width = 6;   ///< 6x6 mesh default (4x4/8x8 in scaling).
  std::uint32_t mesh_height = 6;
  std::uint32_t num_mcs = 8;
  McPlacement mc_placement = McPlacement::kDiamond;  ///< Table I: diamond.
  /// Interconnect fabric (docs/fabrics.md): "mesh" (default, the 2D mesh
  /// routed by dimension order), "torus" / "cmesh" / "chiplet" (built-in
  /// generators over the mesh_* dimensions above), or "file" (load
  /// topology_file). Non-mesh fabrics route via compiled up*/down* tables.
  std::string fabric = "mesh";
  std::string topology_file;  ///< Topology path; consulted iff fabric=="file".
  std::uint32_t cmesh_concentration = 4;  ///< Endpoints per cmesh hub router.
  std::uint32_t chiplets_x = 2;  ///< Chiplet grid (fabric=="chiplet"); each
  std::uint32_t chiplets_y = 2;  ///< chiplet is a mesh_width x mesh_height die.
  std::uint32_t serdes_latency = 4;  ///< Extra cycles on die-boundary links.

  // ---- Link / packet geometry ----
  std::uint32_t link_width_bits_request = 128;  ///< Fig.4 sweeps this.
  std::uint32_t link_width_bits_reply = 128;
  std::uint32_t data_payload_bits = 512;  ///< One read-reply / write-request
                                          ///< data chunk (4 narrow flits).
  std::uint32_t link_latency = 1;         ///< Cycles per hop wire traversal.
  std::uint32_t router_pipeline_stages = 1;  ///< Extra per-hop pipeline
                                             ///< cycles beyond the single-
                                             ///< cycle router (1..3).

  // ---- Router (Table I) ----
  std::uint32_t num_vcs = 4;          ///< Per input port.
  std::uint32_t vc_depth_pkts = 1;    ///< Packets per VC (Table I: 1 pkt).
  RoutingAlgo routing = RoutingAlgo::kXY;
  bool non_atomic_vc = true;          ///< WPF-style whole-packet forwarding.

  // ---- NI (Table I: 36-flit injection queue) ----
  std::uint32_t ni_queue_flits = 36;
  NiArch reply_ni = NiArch::kEnhanced;
  std::uint32_t split_queues = 4;         ///< ARI: # split NI queues = # of
                                          ///< narrow NI->VC links.
  std::uint32_t multiport_ports = 2;      ///< [3]: # router injection ports.

  // ---- ARI consumption / prioritization (paper §4.2, §5) ----
  std::uint32_t injection_speedup = 1;    ///< Switch-ports for the injection
                                          ///< port of MC-routers (S). ARI: 4.
  std::uint32_t priority_levels = 1;      ///< 1 = no prioritization; ARI: 2.
  Cycle starvation_threshold = 1000;      ///< §5 anti-starvation bound.
  /// Negative control: apply the ARI mechanisms to the *request* side too
  /// (split CC NIs + CC-router injection speedup). The paper argues the
  /// bottleneck is reply-side only, so this should buy nothing.
  bool request_side_ari = false;

  // ---- GPU cores ----
  std::uint32_t warps_per_core = 24;   ///< 8 CTAs x 3 warps equivalent load.
  std::uint32_t warp_size = 32;
  std::uint32_t simd_width = 8;
  std::uint32_t max_pending_loads = 8;  ///< Scoreboard slots per warp.
  /// Extension knobs (paper §2.2 future work): techniques that shift NoC
  /// traffic intensity. l1_bypass sends every load to the L2/memory side
  /// (cache-bypassing schemes increase NoC traffic); disabling cross-warp
  /// MSHR merging removes the WarpPool-like inter-warp request coalescing
  /// (more duplicate traffic).
  bool l1_bypass = false;
  bool cross_warp_merge = true;
  /// CTA barrier interval in warp instructions (0 = no barriers). Warps of
  /// the same CTA synchronize every `barrier_interval` instructions —
  /// GPU kernels' __syncthreads() rhythm, which phase-aligns memory bursts.
  std::uint32_t barrier_interval = 0;
  std::uint32_t warps_per_cta = 3;  ///< CTA granularity for barriers.

  // ---- Caches ----
  std::uint32_t l1_size_bytes = 16 * 1024;
  std::uint32_t l1_assoc = 4;
  std::uint32_t l2_size_bytes = 128 * 1024;  ///< Per MC bank.
  std::uint32_t l2_assoc = 8;
  std::uint32_t line_bytes = 64;   ///< = data_payload_bits / 8.
  std::uint32_t mshr_entries = 32;
  std::uint32_t mshr_merges = 8;
  std::uint32_t l2_latency = 8;    ///< Bank access latency (cycles @1GHz).

  // ---- GDDR5 (Table I, GTX980) ----
  std::uint32_t dram_banks = 16;  ///< GDDR5 bank count.
  std::uint32_t dram_queue_depth = 64;  ///< FR-FCFS scheduling window.
  std::uint32_t t_rp = 12;
  std::uint32_t t_rc = 40;
  std::uint32_t t_rrd = 6;
  std::uint32_t t_ras = 28;
  std::uint32_t t_rcd = 12;
  std::uint32_t t_cl = 12;
  std::uint32_t burst_cycles = 4;        ///< Data-bus occupancy per access.
  std::uint32_t dram_starvation_cap = 256;  ///< FR-FCFS aging bound.
  double mem_clock_ratio = 1.75;         ///< 1.75 GHz GDDR5 vs 1 GHz NoC.
  std::uint32_t mc_request_queue = 32;   ///< Per-MC in-flight request cap.
  std::uint32_t mc_eject_flits_per_cycle = 2;  ///< MC-side request-NI drain
                                               ///< rate (provisioned to the
                                               ///< MC datapath rate so reply
                                               ///< backpressure, not raw
                                               ///< ejection width, gates MC
                                               ///< request service).
  std::uint32_t mc_reply_stage = 4;      ///< Ready-data slots before the NI
                                         ///< (stall accounting watches this).

  // ---- Simulation control ----
  Cycle warmup_cycles = 2000;
  Cycle run_cycles = 20000;
  std::uint64_t seed = 1;
  /// Step only components that can do work this cycle (active-set gating).
  /// Bit-identical to always-on stepping — every metric, counter, trace
  /// event, and RNG draw is unchanged — so it is deliberately excluded from
  /// canonical_string(): cached results are valid across both modes. Turn
  /// off with --no-activity (arinoc_sim) to cross-check or bisect.
  bool activity_driven = true;
  /// Only 1 is valid (validate()); goes with the next benchmark change.
  std::uint32_t threads = 1;

  // ---- Fault injection & recovery (robustness subsystem) ----
  // Per-link per-cycle probabilities; all zero (the default) keeps the
  // fault subsystem entirely out of the simulation (strict no-op).
  double fault_corrupt_rate = 0.0;      ///< Transient flit corruption.
  double fault_link_stall_rate = 0.0;   ///< Stall-window openings.
  std::uint32_t fault_link_stall_len = 20;  ///< Stall window (cycles).
  double fault_port_fail_rate = 0.0;    ///< Permanent link/port failure.
  double fault_credit_loss_rate = 0.0;  ///< Single-credit loss.
  std::uint64_t fault_seed = 12345;     ///< Own RNG stream, not `seed`.
  std::uint32_t fault_enable_mask = 0xF;  ///< FaultClass bits.
  bool fault_recovery = true;           ///< CRC drop + ACK/NACK retransmit.
  Cycle rtx_timeout = 2048;             ///< Base retransmission timeout.
  std::uint32_t rtx_max_retries = 16;

  // ---- Watchdog (deadlock / livelock / invariant audit) ----
  bool watchdog_enabled = true;
  Cycle watchdog_deadlock_window = 5000;  ///< K in the acceptance criteria.
  Cycle watchdog_livelock_age = 50000;
  Cycle watchdog_audit_interval = 0;  ///< Credit-audit period; 0 = off.

  // ---- Open-loop serving (overload robustness; docs/workloads.md) ----
  /// Replace the SIMT cores with rate-driven OpenLoopClients. Off (the
  /// default) leaves the closed-loop path untouched and bit-identical.
  bool open_loop = false;
  /// PaceProfile::parse_spec input: constant/diurnal/burst/flash spec or a
  /// pace-file path. Only consulted when open_loop is set.
  std::string pace_spec = "constant:0.02";
  double pace_scale = 1.0;  ///< Load factor multiplying the profile.
  std::uint32_t ol_queue_cap = 4096;  ///< Pending arrivals per client;
                                      ///< overflow is dropped and counted.
  double ol_write_frac = 0.15;  ///< Store fraction of generated requests.

  // ---- Admission control & graceful degradation (noc/admission.*) ----
  // Disabled (the default) constructs nothing: every run is bit-identical
  // to a build without the admission subsystem.
  bool admission_enabled = false;
  double adm_rate = 0.25;        ///< Tokens/cycle/CC in NORMAL state.
  std::uint32_t adm_burst = 8;   ///< Token-bucket depth.
  double adm_throttle_factor = 0.5;  ///< Refill scale in THROTTLED.
  double adm_throttle_occ = 0.60;  ///< Reply-NI occupancy: enter THROTTLED.
  double adm_shed_occ = 0.85;      ///< Occupancy: enter SHEDDING.
  double adm_recover_occ = 0.35;   ///< Occupancy: hysteretic step-down.
  Cycle adm_dwell = 256;           ///< Min cycles between FSM transitions.
  std::uint32_t adm_retry_max = 6; ///< Defer rounds before a request sheds.
  Cycle adm_backoff = 32;          ///< Base defer backoff; doubles/retry.

  // Derived helpers -------------------------------------------------------
  /// Mesh-geometry node/CC counts. Exact for the "mesh" and "torus"
  /// fabrics; cmesh/chiplet/file endpoint counts come from the built
  /// topo::Fabric (GpgpuSim sizes cores off fabric.cc_nodes()).
  std::uint32_t num_nodes() const { return mesh_width * mesh_height; }
  std::uint32_t num_ccs() const { return num_nodes() - num_mcs; }
  /// Flits of a long (data-bearing) packet on the given network link width:
  /// 1 header flit + payload flits.
  std::uint32_t long_packet_flits(std::uint32_t link_bits) const {
    return 1 + ceil_div(data_payload_bits, link_bits);
  }
  std::uint32_t reply_long_flits() const {
    return long_packet_flits(link_width_bits_reply);
  }
  std::uint32_t request_long_flits() const {
    return long_packet_flits(link_width_bits_request);
  }
  /// VC buffer depth in flits on the reply network (1 pkt = long pkt).
  std::uint32_t vc_depth_flits_reply() const {
    return vc_depth_pkts * reply_long_flits();
  }
  std::uint32_t vc_depth_flits_request() const {
    return vc_depth_pkts * request_long_flits();
  }

  /// True when any fault class is enabled with a nonzero rate.
  bool fault_enabled() const;

  /// Validates internal consistency; returns an error string or empty.
  std::string validate() const;

  /// Canonical `field=value` serialization of every parameter, one line per
  /// field in declaration order, doubles in hexfloat (exact). Two configs
  /// produce the same string iff every simulation-relevant knob matches —
  /// this is the config component of the exec result-cache key.
  std::string canonical_string() const;

  /// The paper's Table I, formatted for printing.
  std::string table1() const;
};

/// Named scheme presets used throughout the evaluation (paper §6.2).
enum class Scheme {
  kXYBaseline,      ///< (1) XY + enhanced baseline.
  kXYARI,           ///< (2) XY + full ARI.
  kAdaBaseline,     ///< (3) adaptive + enhanced baseline.
  kAdaMultiPort,    ///< (4) adaptive + MultiPort [3].
  kAdaARI,          ///< (5) adaptive + full ARI.
  kAccSupply,       ///< Fig.10 ablation: supply acceleration only.
  kAccConsume,      ///< Fig.10 ablation: consumption acceleration only.
  kAccBothNoPrio,   ///< Fig.10 ablation: both, no prioritization.
  kRawBaseline,     ///< GPGPU-Sim default (narrow MC->NI), pre-§4.1.
};

/// Applies a scheme preset on top of a base configuration.
Config apply_scheme(Config base, Scheme scheme);

/// Human-readable scheme name as used in the paper's figures.
const char* scheme_name(Scheme scheme);

}  // namespace arinoc
