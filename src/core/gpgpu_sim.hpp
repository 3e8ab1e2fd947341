// Top-level GPGPU system simulator: SIMT cores + request network + memory
// controllers (L2 + GDDR5) + reply network (mesh or DA2mesh overlay), wired
// per the end-to-end flow of paper Fig. 2.
#pragma once

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "common/active_set.hpp"
#include "common/config.hpp"
#include "common/types.hpp"
#include "core/energy.hpp"
#include "core/watchdog.hpp"
#include "gpu/core.hpp"
#include "mem/address_map.hpp"
#include "mem/mem_controller.hpp"
#include "mem/txn.hpp"
#include "noc/admission.hpp"
#include "noc/network.hpp"
#include "noc/ni.hpp"
#include "noc/overlay.hpp"
#include "obs/registry.hpp"
#include "obs/sampler.hpp"
#include "obs/selfprof.hpp"
#include "topo/fabric.hpp"
#include "workloads/benchmark.hpp"
#include "workloads/openloop.hpp"
#include "workloads/pace.hpp"
#include "workloads/tracegen.hpp"

namespace arinoc {

namespace obs {
class PacketTracer;
class LatencyAttributor;
class SelfProfiler;
}

/// Everything the evaluation figures need from one measured run. Every
/// emitter reads it through the field table in core/metric_fields.hpp: a
/// new member needs a row there.
struct Metrics {
  Cycle cycles = 0;
  std::uint64_t warp_instructions = 0;
  double ipc = 0.0;  ///< Warp instructions per cycle (all cores).

  double request_latency = 0.0;  ///< Mean packet latency, request network.
  double reply_latency = 0.0;    ///< Mean packet latency, reply fabric.

  // ---- Tail latency (log-histogram percentiles, all packets per fabric) ----
  double request_latency_p50 = 0.0;
  double request_latency_p95 = 0.0;
  double request_latency_p99 = 0.0;
  double reply_latency_p50 = 0.0;
  double reply_latency_p95 = 0.0;
  double reply_latency_p99 = 0.0;
  /// p99 latency per PacketType: request types measured on the request
  /// network, reply types on the reply fabric.
  std::array<double, 4> latency_p99_by_type{};

  std::uint64_t mc_stall_cycles = 0;  ///< Summed over MCs (Fig. 12).

  std::array<std::uint64_t, 4> flits_by_type{};    ///< Both networks (Fig. 5).
  std::array<std::uint64_t, 4> packets_by_type{};

  double reply_injection_util = 0.0;  ///< Flits/cycle on MC injection links.
  double reply_internal_util = 0.0;   ///< Flits/cycle on in-network links.
  double request_injection_util = 0.0;
  double request_internal_util = 0.0;

  double ni_occupancy_pkts = 0.0;  ///< Mean reply-NI occupancy (Fig. 6).

  double l1_hit_rate = 0.0;
  double l2_hit_rate = 0.0;
  double dram_row_hit_rate = 0.0;

  // ---- Fault / resilience (reply network; all 0 with faults disabled) ----
  std::uint64_t flits_corrupted = 0;
  std::uint64_t packets_corrupted = 0;
  std::uint64_t packets_retransmitted = 0;
  std::uint64_t packets_recovered = 0;
  std::uint64_t packets_lost = 0;
  std::uint64_t duplicates_dropped = 0;
  std::uint64_t credits_lost = 0;
  std::uint64_t link_stall_events = 0;
  std::uint64_t port_failures = 0;

  // ---- Serving / overload robustness (all 0 unless open_loop/admission) ----
  std::uint64_t requests_offered = 0;    ///< Scheduled open-loop arrivals.
  std::uint64_t requests_completed = 0;  ///< Replies delivered to clients.
  std::uint64_t requests_shed = 0;       ///< Dropped by admission/overflow.
  std::uint64_t requests_deferred = 0;   ///< Admission defer (backoff) events.
  std::uint64_t queue_drops = 0;         ///< Client arrival-queue overflows.
  double offered_rate = 0.0;             ///< Offered requests/cycle/CC.
  double goodput = 0.0;                  ///< Completed requests/cycle/CC.
  /// End-to-end serving latency (scheduled arrival -> reply delivery).
  double e2e_latency_p50 = 0.0;
  double e2e_latency_p99 = 0.0;
  double e2e_latency_p999 = 0.0;
  double request_latency_p999 = 0.0;
  double reply_latency_p999 = 0.0;
  std::uint64_t degrade_transitions = 0;  ///< Degradation FSM edges.
  Cycle cycles_normal = 0;
  Cycle cycles_throttled = 0;
  Cycle cycles_shedding = 0;
  std::uint64_t watchdog_pre_trips = 0;  ///< Pre-trip warning rising edges.

  // ---- Latency attribution (inert unless an attributor is attached) ----
  bool attr_enabled = false;
  /// Fraction of delivered e2e latency per stage (ni_queue, vc_wait,
  /// sw_wait, link, eject, retx), per fabric; each array sums to ~1 when
  /// any packets were delivered.
  std::array<double, 6> request_stage_share{};
  std::array<double, 6> reply_stage_share{};
  std::uint64_t attr_violations = 0;  ///< Conservation-check failures.
  /// Rank-1 bottleneck label + share ("reply ni_queue at mc21 61.0%").
  std::string bottleneck;

  ActivityCounters activity;
  EnergyBreakdown energy;
};

class GpgpuSim {
 public:
  /// `use_da2mesh` replaces the mesh reply network with the DA2mesh overlay
  /// (§7.5(4)); ARI-ness of the overlay follows cfg.reply_ni == kSplitQueue.
  GpgpuSim(const Config& cfg, const BenchmarkTraits& traits,
           bool use_da2mesh = false);
  /// Drives the cores from a caller-owned instruction source (e.g. a
  /// TraceFileSource) instead of the synthetic benchmark models. `source`
  /// must outlive the simulator.
  GpgpuSim(const Config& cfg, InstrSource* source, bool use_da2mesh = false);
  ~GpgpuSim();

  /// Advances one cycle. Throws WatchdogTrip if the watchdog (enabled by
  /// default, cfg.watchdog_enabled) detects deadlock, livelock, or a credit
  /// invariant violation.
  void step();
  void run(Cycle cycles);
  /// Warmup for cfg.warmup_cycles, reset statistics, run cfg.run_cycles.
  void run_with_warmup();

  /// Flushes deferred activity bookkeeping (idle-cycle stall counts and
  /// occupancy samples of sleeping cores/MCs) up to the current cycle, so
  /// every observer reads the same state always-on stepping would produce.
  /// Called automatically at the end of run(), before reset_stats(), and on
  /// a watchdog trip; replays nothing in always-on mode. Idempotent.
  void sync_activity();

  /// Structured diagnostic snapshot: live packets, router VC occupancy, MC
  /// stall state, blocked links, retransmission state. Used by the watchdog
  /// trip path; callable any time.
  std::string diagnostic_dump(const std::string& reason) const;

  void reset_stats();
  Metrics collect() const;

  Cycle now() const { return cycle_; }
  /// The fabric both networks are built over (any topology).
  const topo::Fabric& fabric() const { return fabric_; }
  const Config& config() const { return cfg_; }

  // ---- Component access (tests, probes) ----
  Network& request_net() { return *request_net_; }
  Network& reply_net() { return *reply_net_; }
  bool has_overlay() const { return overlay_ != nullptr; }
  Da2MeshOverlay& overlay() { return *overlay_; }
  std::size_t num_cores() const { return cores_.size(); }
  std::size_t num_mcs() const { return mcs_.size(); }
  SimtCore& core(std::size_t i) { return *cores_[i]; }
  MemController& mc(std::size_t i) { return *mcs_[i]; }
  InjectNi& reply_ni(std::size_t mc_index) { return *reply_inject_[mc_index]; }
  /// Outstanding memory transactions (conservation probe for tests).
  std::size_t live_txns() const { return txns_.live(); }

  // ---- Serving layer access (open_loop / admission runs only) ----
  std::size_t num_clients() const { return clients_.size(); }
  OpenLoopClient& client(std::size_t i) { return *clients_[i]; }
  /// Current degradation state; kNormal when admission is disabled.
  DegradeState degrade_state() const {
    return degrade_ ? degrade_->state() : DegradeState::kNormal;
  }
  const Watchdog* watchdog() const { return watchdog_.get(); }

  // ---- Observability (all optional; strictly inert when not enabled) ----
  /// Attaches a packet-lifecycle tracer to both mesh networks and their
  /// routers (null detaches). The DA2mesh overlay reply path carries no
  /// trace hooks; with the overlay active only the request side is traced.
  void attach_tracer(obs::PacketTracer* t);
  obs::PacketTracer* tracer() const { return tracer_; }

  /// Attaches a latency attributor to both networks and their routers (null
  /// detaches) and hands it the fabric graph for labels/coordinates. The
  /// DA2mesh overlay reply path has no hooks; with the overlay active only
  /// the request side is attributed.
  void attach_attributor(obs::LatencyAttributor* a);
  obs::LatencyAttributor* attributor() const { return attr_; }

  /// Attaches the wall-clock self-profiler (null detaches). Host-side
  /// measurement only: simulated behaviour is identical either way.
  void attach_self_profiler(obs::SelfProfiler* p) { prof_ = p; }
  obs::SelfProfiler* self_profiler() const { return prof_; }
  /// Step/cycle calls made so far on the components of group `g`, read
  /// from the components themselves: what the self-profiler's wake totals
  /// must add up to when it is attached from the first cycle.
  std::uint64_t component_steps(obs::ProfGroup g) const;

  /// Starts periodic telemetry sampling: every `interval` cycles one
  /// TelemetrySample is recorded over the window just ended. interval == 0
  /// disables sampling. reset_stats() clears recorded samples and
  /// re-baselines, so warmup windows never leak into the series.
  void enable_sampling(Cycle interval);
  /// Records a trailing partial-window sample (call once after run()).
  void flush_sampler();
  const obs::TelemetrySampler* sampler() const { return sampler_.get(); }

  /// Counter, gauge and histogram values of every component (cores,
  /// caches, MCs, DRAM, networks, NIs), read now.
  obs::CounterDump counters() const;

 private:
  class CcRequestPort;
  class McReplyPort;

  void build(bool use_da2mesh, InstrSource* source);
  /// Phase 4 of step(): advances the request network, then the reply
  /// network (or the DA2mesh overlay), one cycle each.
  void step_networks(Cycle now);
  /// Hands the attached tracer/attributor to both networks' event sinks.
  void attach_observers();
  /// Marks every member of every active set pending.
  void wake_all();

  Config cfg_;
  BenchmarkTraits traits_;
  topo::Fabric fabric_;
  AddressMap amap_;
  TxnPool txns_;
  TraceGen tracegen_;  ///< Default source (synthetic benchmark model).

  std::unique_ptr<Network> request_net_;
  std::unique_ptr<Network> reply_net_;
  std::unique_ptr<Da2MeshOverlay> overlay_;

  std::vector<std::unique_ptr<SimtCore>> cores_;          // Per CC node.
  std::vector<std::unique_ptr<MemController>> mcs_;       // Per MC node.
  std::vector<std::unique_ptr<CcRequestPort>> req_ports_;
  std::vector<std::unique_ptr<McReplyPort>> reply_ports_;

  // ---- Serving layer (open-loop front end + admission control) ----
  /// Non-null iff cfg.open_loop: clients replace cores_ one-for-one per CC.
  std::unique_ptr<PaceProfile> pace_;
  std::vector<std::unique_ptr<OpenLoopClient>> clients_;
  /// Non-null iff cfg.admission_enabled.
  std::unique_ptr<DegradationFsm> degrade_;
  std::vector<std::unique_ptr<AdmissionGate>> gates_;  // Per CC.
  /// Watchdog pre-trip count at the last reset_stats (epoch baseline).
  std::uint64_t pre_trip_base_ = 0;

  std::vector<std::unique_ptr<InjectNi>> request_inject_;  // Per CC.
  std::vector<std::unique_ptr<EjectNi>> request_eject_;    // Per MC.
  std::vector<std::unique_ptr<InjectNi>> reply_inject_;    // Per MC.
  std::vector<std::unique_ptr<EjectNi>> reply_eject_;      // Per CC.

  std::unique_ptr<Watchdog> watchdog_;

  // ---- Active sets: the one loop body of step() ----
  /// One active set per stepped subsystem; each is drained once per cycle
  /// in ascending index order. Always-on stepping (!cfg.activity_driven)
  /// wakes every member at the start of each cycle. Network-internal router
  /// sets live inside the Network objects.
  ActiveSet core_act_;      // Index: core i.
  ActiveSet mc_act_;        // Index: MC i.
  ActiveSet req_inj_act_;   // Index: CC i (request_inject_[i]).
  ActiveSet rep_inj_act_;   // Index: MC i (reply_inject_[i]).
  ActiveSet req_ej_act_;    // Index: MC i (request_eject_[i]).
  ActiveSet rep_ej_act_;    // Index: CC i (reply_eject_[i]).

  // ---- Observability state ----
  /// Cumulative-counter snapshot at the last sample boundary; deltas against
  /// it turn monotone counters into per-window rates.
  struct ObsBaseline {
    std::uint64_t warp_instructions = 0;
    std::uint64_t req_injected = 0;
    std::uint64_t req_delivered = 0;
    std::uint64_t rep_injected = 0;
    std::uint64_t rep_delivered = 0;
    std::uint64_t req_link_flits = 0;
    std::uint64_t rep_link_flits = 0;
    std::uint64_t mc_stall_cycles = 0;
    std::uint64_t retransmits = 0;
    std::uint64_t flits_corrupted = 0;
    std::uint64_t requests_shed = 0;
    std::uint64_t pre_trips = 0;
  };
  ObsBaseline capture_obs_baseline() const;
  void take_sample();
  /// Mean packets queued in the reply inject NIs right now.
  double reply_ni_occupancy_now() const;

  obs::PacketTracer* tracer_ = nullptr;
  obs::LatencyAttributor* attr_ = nullptr;
  obs::SelfProfiler* prof_ = nullptr;
  std::unique_ptr<obs::TelemetrySampler> sampler_;
  ObsBaseline obs_base_;
  Cycle sample_anchor_ = 0;

  Cycle cycle_ = 0;
  Cycle measure_start_ = 0;
};

}  // namespace arinoc
