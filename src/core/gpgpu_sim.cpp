#include "core/gpgpu_sim.hpp"

#include <algorithm>
#include <cassert>
#include <sstream>
#include <stdexcept>

#include "obs/attr.hpp"
#include "obs/selfprof.hpp"
#include "obs/sink.hpp"
#include "obs/trace.hpp"

namespace arinoc {

// ---------------------------------------------------------------- Ports

/// Request injection glue for one CC node. In closed-loop runs with
/// admission enabled the gate is consulted here (a denial surfaces to the
/// core as plain injection backpressure, so its existing retry loop is the
/// backoff); open-loop runs leave `gate` null because OpenLoopClient asks
/// admission itself before calling this port — exactly one layer charges
/// the token.
class GpgpuSim::CcRequestPort final : public RequestPort {
 public:
  CcRequestPort(GpgpuSim* sim, NodeId cc, InjectNi* ni, AdmissionGate* gate)
      : sim_(sim), cc_(cc), ni_(ni), gate_(gate) {}

  bool try_send_request(bool write, TxnId txn, NodeId dest_mc,
                        Cycle now) override {
    if (gate_ && gate_->request(now) != AdmissionDecision::kAdmit) {
      return false;
    }
    const PacketType type =
        write ? PacketType::kWriteRequest : PacketType::kReadRequest;
    Network& net = *sim_->request_net_;
    if (!ni_->can_accept(net.flits_for(type))) {
      // The admitted request never reached the fabric: return the token so
      // admission only charges injected traffic.
      if (gate_) gate_->refund_admit();
      return false;
    }
    const bool accepted = ni_->try_accept(
        net.make_packet(type, cc_, dest_mc, 0, txn, now), now);
    assert(accepted);
    (void)accepted;
    return true;
  }

 private:
  GpgpuSim* sim_;
  NodeId cc_;
  InjectNi* ni_;
  AdmissionGate* gate_;  ///< Null unless closed-loop admission.
};

/// Reply injection glue for one MC node (mesh NI or DA2mesh endpoint).
class GpgpuSim::McReplyPort final : public ReplyPort {
 public:
  McReplyPort(GpgpuSim* sim, NodeId mc, InjectNi* ni)
      : sim_(sim), mc_(mc), ni_(ni) {}

  bool try_send_reply(PacketType type, TxnId txn, NodeId dest,
                      Cycle now) override {
    assert(is_reply(type));
    if (sim_->overlay_) {
      const PacketId id =
          sim_->overlay_->make_packet(type, mc_, dest, txn, now);
      if (sim_->overlay_->try_accept(mc_, id, now)) return true;
      sim_->overlay_->abandon_packet(id);
      return false;
    }
    // Replies are born at the top priority level and decay per hop (§5).
    const auto prio = static_cast<std::uint8_t>(
        sim_->cfg_.priority_levels - 1);
    Network& net = *sim_->reply_net_;
    // Asking first keeps a full NI from churning arena slots every stalled
    // cycle; the slot sequence is the same (the free list is LIFO).
    if (!ni_->can_accept(net.flits_for(type))) return false;
    const bool accepted =
        ni_->try_accept(net.make_packet(type, mc_, dest, prio, txn, now), now);
    assert(accepted);
    (void)accepted;
    return true;
  }

 private:
  GpgpuSim* sim_;
  NodeId mc_;
  InjectNi* ni_;
};

// ---------------------------------------------------------------- Setup

namespace {

NetworkParams request_params(const Config& cfg) {
  NetworkParams p;
  p.activity_driven = cfg.activity_driven;
  p.name = "request";
  p.link_width_bits = cfg.link_width_bits_request;
  p.data_payload_bits = cfg.data_payload_bits;
  p.num_vcs = cfg.num_vcs;
  p.vc_depth_flits = cfg.vc_depth_flits_request();
  // Deeper router pipelines show up as extra per-hop transfer latency.
  p.link_latency = cfg.link_latency + cfg.router_pipeline_stages - 1;
  p.routing = cfg.routing;
  p.non_atomic_vc = cfg.non_atomic_vc;
  p.priority_levels = 1;  // ARI touches only the reply side...
  p.treat_mcs_specially = false;
  // ...unless the request-side negative control is enabled.
  p.treat_ccs_specially = cfg.request_side_ari;
  p.mc_injection_speedup = cfg.request_side_ari ? cfg.injection_speedup : 1;
  return p;
}

NetworkParams reply_params(const Config& cfg) {
  NetworkParams p;
  p.activity_driven = cfg.activity_driven;
  p.name = "reply";
  p.link_width_bits = cfg.link_width_bits_reply;
  p.data_payload_bits = cfg.data_payload_bits;
  p.num_vcs = cfg.num_vcs;
  p.vc_depth_flits = cfg.vc_depth_flits_reply();
  p.link_latency = cfg.link_latency + cfg.router_pipeline_stages - 1;
  p.routing = cfg.routing;
  p.non_atomic_vc = cfg.non_atomic_vc;
  p.priority_levels = cfg.priority_levels;
  p.starvation_threshold = cfg.starvation_threshold;
  p.mc_injection_speedup = cfg.injection_speedup;
  p.mc_injection_ports =
      cfg.reply_ni == NiArch::kMultiPort ? cfg.multiport_ports : 1;
  p.treat_mcs_specially = true;
  // The fault campaign targets the reply network — the paper's bottleneck
  // and the side whose loss the cores cannot tolerate.
  p.fault = fault_params_from(cfg);
  return p;
}

}  // namespace

GpgpuSim::GpgpuSim(const Config& cfg, const BenchmarkTraits& traits,
                   bool use_da2mesh)
    : cfg_(cfg),
      traits_(traits),
      fabric_(topo::make_fabric(cfg)),
      amap_(cfg.num_mcs, cfg.line_bytes, cfg.dram_banks),
      tracegen_(traits, static_cast<std::uint32_t>(fabric_.cc_nodes().size()),
                cfg.warps_per_core, cfg.line_bytes, cfg.seed) {
  build(use_da2mesh, &tracegen_);
}

GpgpuSim::GpgpuSim(const Config& cfg, InstrSource* source, bool use_da2mesh)
    : cfg_(cfg),
      traits_(),
      fabric_(topo::make_fabric(cfg)),
      amap_(cfg.num_mcs, cfg.line_bytes, cfg.dram_banks),
      tracegen_(traits_, 1, 1, cfg.line_bytes, cfg.seed) {
  build(use_da2mesh, source);
}

void GpgpuSim::build(bool use_da2mesh, InstrSource* source) {
  const Config& cfg = cfg_;
  const std::string err = cfg.validate();
  if (!err.empty()) {
    throw std::invalid_argument("invalid configuration: " + err);
  }
  if (use_da2mesh && cfg.fault_enabled()) {
    throw std::invalid_argument(
        "fault injection targets the mesh reply network and is not "
        "supported with the DA2mesh overlay");
  }
  if (use_da2mesh && (cfg.open_loop || cfg.admission_enabled)) {
    throw std::invalid_argument(
        "open-loop serving and admission control read mesh reply-NI queue "
        "state and are not supported with the DA2mesh overlay");
  }
  if (use_da2mesh && !fabric_.is_mesh()) {
    throw std::invalid_argument(
        "the DA2mesh overlay is a mesh-geometry bypass and is not supported "
        "on fabric '" + fabric_.kind() + "'");
  }

  request_net_ = std::make_unique<Network>(request_params(cfg), &fabric_);
  reply_net_ = std::make_unique<Network>(reply_params(cfg), &fabric_);
  if (use_da2mesh) {
    OverlayParams op;
    op.queue_flits = cfg.ni_queue_flits;
    op.ari = cfg.reply_ni == NiArch::kSplitQueue;
    op.lanes = cfg.split_queues;
    op.data_payload_bits = cfg.data_payload_bits;
    op.link_width_bits = cfg.link_width_bits_reply;
    overlay_ = std::make_unique<Da2MeshOverlay>(op, fabric_);
  }

  const auto& mc_nodes = fabric_.mc_nodes();
  const auto& cc_nodes = fabric_.cc_nodes();

  // Serving layer: the degradation FSM is global (one pressure signal, one
  // state every gate reads); gates are per CC and built alongside their
  // request NI below. The pace profile is parsed up front so a malformed
  // spec or missing pace file fails construction, not cycle 1.
  AdmissionParams ap;
  if (cfg.admission_enabled) {
    ap.rate = cfg.adm_rate;
    ap.burst = cfg.adm_burst;
    ap.throttle_factor = cfg.adm_throttle_factor;
    ap.throttle_occ = cfg.adm_throttle_occ;
    ap.shed_occ = cfg.adm_shed_occ;
    ap.recover_occ = cfg.adm_recover_occ;
    ap.dwell = cfg.adm_dwell;
    degrade_ = std::make_unique<DegradationFsm>(ap);
  }
  if (cfg.open_loop) {
    pace_ = std::make_unique<PaceProfile>(PaceProfile::parse_spec(cfg.pace_spec));
  }

  // Memory controllers + their reply injection path.
  for (std::size_t i = 0; i < mc_nodes.size(); ++i) {
    const NodeId node = mc_nodes[i];
    if (!overlay_) {
      reply_inject_.push_back(
          make_inject_ni(cfg.reply_ni, reply_net_.get(), node, cfg));
    } else {
      reply_inject_.push_back(nullptr);  // Overlay NIs live in the overlay.
    }
    reply_ports_.push_back(std::make_unique<McReplyPort>(
        this, node, reply_inject_.back().get()));
    mcs_.push_back(std::make_unique<MemController>(
        cfg, node, &txns_, &amap_, reply_ports_.back().get()));
    request_eject_.push_back(std::make_unique<EjectNi>(
        request_net_.get(), node, mcs_.back().get(),
        cfg.mc_eject_flits_per_cycle));
  }

  // Cores + their request injection / reply ejection paths. With
  // cfg.open_loop the SIMT cores are replaced one-for-one by open-loop
  // serving clients (cores_ stays empty); everything below the request
  // port — NIs, mesh, MCs, replies — is unchanged.
  for (std::size_t i = 0; i < cc_nodes.size(); ++i) {
    const NodeId node = cc_nodes[i];
    // Request-side CC NIs use the enhanced single-queue architecture: the
    // paper leaves the request network untouched (split queues only under
    // the request_side_ari negative control).
    request_inject_.push_back(make_inject_ni(
        cfg.request_side_ari ? NiArch::kSplitQueue : NiArch::kEnhanced,
        request_net_.get(), node, cfg));
    if (degrade_) {
      gates_.push_back(std::make_unique<AdmissionGate>(ap, degrade_.get()));
    }
    AdmissionGate* gate = degrade_ ? gates_.back().get() : nullptr;
    // Exactly one layer consults the gate: the open-loop client (which
    // owns defer/backoff) or, closed-loop, the request port.
    req_ports_.push_back(std::make_unique<CcRequestPort>(
        this, node, request_inject_.back().get(),
        cfg.open_loop ? nullptr : gate));
    PacketSink* reply_sink = nullptr;
    if (cfg.open_loop) {
      clients_.push_back(std::make_unique<OpenLoopClient>(
          cfg, static_cast<std::uint32_t>(i), node, pace_.get(), &txns_,
          &amap_, &fabric_.mc_nodes(), req_ports_.back().get(), gate));
      reply_sink = clients_.back().get();
    } else {
      cores_.push_back(std::make_unique<SimtCore>(
          cfg, static_cast<std::uint32_t>(i), node, source, &txns_, &amap_,
          &fabric_.mc_nodes(), req_ports_.back().get()));
      reply_sink = cores_.back().get();
    }
    if (!overlay_) {
      reply_eject_.push_back(std::make_unique<EjectNi>(
          reply_net_.get(), node, reply_sink));
    } else {
      overlay_->set_sink(node, reply_sink);
    }
  }

  // Recovery: re-injections of NACKed/timed-out reply packets go through the
  // same MC injection NIs as first transmissions.
  if (RetransmitTracker* rtx = reply_net_->retransmit()) {
    for (std::size_t i = 0; i < mc_nodes.size(); ++i) {
      rtx->register_ni(mc_nodes[i], reply_inject_[i].get());
    }
  }

  if (cfg.watchdog_enabled) {
    WatchdogParams wp;
    wp.deadlock_window = cfg.watchdog_deadlock_window;
    wp.livelock_age = cfg.watchdog_livelock_age;
    wp.audit_interval = cfg.watchdog_audit_interval;
    watchdog_ = std::make_unique<Watchdog>(wp);
  }

  // Activity hooks: register every sleepable component in its subsystem's
  // active set and wire the wake edges (reply delivery -> core, request
  // delivery -> MC, packet accept -> injection NI; router wake edges and
  // the freed-injection-VC wake of a blocked NI live inside Network,
  // ejection NIs are woken by the post-network scan in step()). Everything
  // starts awake; idle components fall asleep after their first step.
  // Always-on stepping wakes every set every cycle.
  core_act_.resize(cores_.size());
  req_inj_act_.resize(request_inject_.size());
  rep_ej_act_.resize(reply_eject_.size());
  for (std::size_t i = 0; i < cc_nodes.size(); ++i) {
    // Open-loop clients have no sleep state (the pace schedule ticks every
    // cycle), so only real cores register in the active set.
    if (i < cores_.size()) cores_[i]->set_activity_hook(&core_act_, i);
    request_inject_[i]->set_activity_hook(&req_inj_act_, i);
  }
  mc_act_.resize(mcs_.size());
  rep_inj_act_.resize(reply_inject_.size());
  req_ej_act_.resize(request_eject_.size());
  for (std::size_t i = 0; i < mcs_.size(); ++i) {
    mcs_[i]->set_activity_hook(&mc_act_, i);
    if (reply_inject_[i]) {
      reply_inject_[i]->set_activity_hook(&rep_inj_act_, i);
    }
  }
  wake_all();
}

void GpgpuSim::wake_all() {
  core_act_.wake_all();
  mc_act_.wake_all();
  req_inj_act_.wake_all();
  rep_inj_act_.wake_all();
  req_ej_act_.wake_all();
  rep_ej_act_.wake_all();
}

GpgpuSim::~GpgpuSim() = default;

void GpgpuSim::step() {
  const Cycle now = cycle_;
  // Always-on stepping is activity-driven stepping with every member woken:
  // the drains below then step everything, in the same ascending order.
  if (!cfg_.activity_driven) wake_all();
  if (prof_) prof_->begin(obs::ProfPhase::kFrontend);
  // 0) Degradation FSM: one update per cycle from the reply-side pressure
  // signal (mean reply-NI queue occupancy as a fraction of capacity, plus
  // the watchdog's pre-trip warning), before any traffic source runs so
  // every admission gate sees this cycle's state.
  if (degrade_) {
    double occ = 0.0;
    for (const auto& ni : reply_inject_) {
      occ += static_cast<double>(ni->occupancy_flits());
    }
    occ /= static_cast<double>(reply_inject_.size()) *
           static_cast<double>(cfg_.ni_queue_flits);
    degrade_->update(now, occ, watchdog_ && watchdog_->warning_active());
  }
  // Open-loop clients are paced by the arrival schedule, not system state:
  // they step every cycle in both stepping modes (cores_ is empty here).
  for (auto& cl : clients_) cl->cycle(now);
  if (prof_) prof_->end(obs::ProfPhase::kFrontend);
  // Each phase drains its active set in ascending index order — the order
  // of a full loop — so every side effect (arena allocation, trace events,
  // RNG draws) lands in the identical sequence. A component re-wakes itself
  // when its own sleep predicate fails after stepping; external wake edges
  // (deliver, finish_accept, the ejection scan) cover everything else.
  // 1) Cores generate and emit traffic (into request NIs via their ports).
  if (prof_) prof_->begin(obs::ProfPhase::kCores);
  const std::size_t cores_stepped = core_act_.drain_sorted([&](std::size_t i) {
    cores_[i]->cycle(now);
    if (!cores_[i]->can_sleep()) core_act_.wake(i);
  });
  if (prof_) {
    prof_->end(obs::ProfPhase::kCores);
    prof_->begin(obs::ProfPhase::kMcs);
  }
  // 2) MCs service requests, tick DRAM, forward replies into reply NIs.
  const std::size_t mcs_stepped = mc_act_.drain_sorted([&](std::size_t i) {
    mcs_[i]->cycle(now);
    if (!mcs_[i]->can_sleep()) mc_act_.wake(i);
  });
  if (prof_) {
    prof_->end(obs::ProfPhase::kMcs);
    prof_->begin(obs::ProfPhase::kInjectNi);
  }
  // 3) Injection NIs move flits into the routers. Accepts from phases 1-2
  //    woke these sets before this drain, so same-cycle supply matches the
  //    always-on schedule; retransmission re-injections (phase 4) wake the
  //    NI for the next cycle, which is also when always-on would move them.
  //    A blocked NI sleeps until its router frees an injection VC slot in
  //    phase 4 (Router::step wakes it for the next cycle).
  std::size_t inject_stepped = req_inj_act_.drain_sorted([&](std::size_t i) {
    request_inject_[i]->cycle(now);
    if (!request_inject_[i]->can_sleep()) req_inj_act_.wake(i);
  });
  if (!overlay_) {
    inject_stepped += rep_inj_act_.drain_sorted([&](std::size_t i) {
      reply_inject_[i]->cycle(now);
      if (!reply_inject_[i]->can_sleep()) rep_inj_act_.wake(i);
    });
  }
  if (prof_) {
    prof_->end(obs::ProfPhase::kInjectNi);
    prof_->begin(obs::ProfPhase::kNetworks);
  }
  // 4) Networks advance one cycle (router active sets live inside).
  step_networks(now);
  // Wake the ejection NIs whose router buffer holds a flit: a push in phase
  // 4 leaves the buffer non-empty here, and a buffer left non-empty by a
  // backlogged NI was already re-woken by the phase-5 predicate below.
  // wake() is idempotent, so overlap is harmless.
  for (std::size_t i = 0; i < request_eject_.size(); ++i) {
    if (request_net_->router(fabric_.mc_nodes()[i]).has_ejected_flit()) {
      req_ej_act_.wake(i);
    }
  }
  for (std::size_t i = 0; i < reply_eject_.size(); ++i) {
    if (reply_net_->router(fabric_.cc_nodes()[i]).has_ejected_flit()) {
      rep_ej_act_.wake(i);
    }
  }
  if (prof_) {
    prof_->end(obs::ProfPhase::kNetworks);
    prof_->begin(obs::ProfPhase::kEjectNi);
  }
  // 5) Ejection NIs drain router ejection buffers into the sinks. A backlog
  //    the NI could not clear (drain rate, sink backpressure) keeps it
  //    awake.
  std::size_t eject_stepped = req_ej_act_.drain_sorted([&](std::size_t i) {
    request_eject_[i]->cycle(now);
    if (request_net_->router(fabric_.mc_nodes()[i]).has_ejected_flit()) {
      req_ej_act_.wake(i);
    }
  });
  eject_stepped += rep_ej_act_.drain_sorted([&](std::size_t i) {
    reply_eject_[i]->cycle(now);
    if (reply_net_->router(fabric_.cc_nodes()[i]).has_ejected_flit()) {
      rep_ej_act_.wake(i);
    }
  });
  if (prof_) {
    prof_->end(obs::ProfPhase::kEjectNi);
    // Components stepped this cycle (every drain's count, so members woken
    // within the cycle count too) vs the always-on capacity.
    prof_->record_wakes(obs::ProfGroup::kCores, cores_stepped, cores_.size());
    prof_->record_wakes(obs::ProfGroup::kMcs, mcs_stepped, mcs_.size());
    prof_->record_wakes(
        obs::ProfGroup::kInjectNis, inject_stepped,
        request_inject_.size() + (overlay_ ? 0 : reply_inject_.size()));
    prof_->record_wakes(obs::ProfGroup::kEjectNis, eject_stepped,
                        request_eject_.size() + reply_eject_.size());
    prof_->record_wakes(
        obs::ProfGroup::kRouters,
        request_net_->routers_stepped() +
            (overlay_ ? 0 : reply_net_->routers_stepped()),
        static_cast<std::uint64_t>(fabric_.nodes()) * (overlay_ ? 1 : 2));
  }
  // 6) Sampling.
  if (prof_) prof_->begin(obs::ProfPhase::kSampling);
  if (!overlay_) {
    for (auto& ni : reply_inject_) ni->sample();
  }
  ++cycle_;
  if (sampler_ && cycle_ - sample_anchor_ >= sampler_->interval()) {
    take_sample();
  }
  if (prof_) prof_->end(obs::ProfPhase::kSampling);

  // 7) Liveness checks (read-only; subsampled inside the watchdog). The
  // overlay reply path has no movement probes, so only the mesh networks
  // are monitored there.
  if (prof_) prof_->begin(obs::ProfPhase::kWatchdog);
  if (watchdog_) {
    const auto observe = [this]() {
      Watchdog::Observation obs;
      obs.movement = request_net_->movement_count();
      if (!overlay_) obs.movement += reply_net_->movement_count();
      obs.live_packets = request_net_->arena().live();
      if (!overlay_) obs.live_packets += reply_net_->arena().live();
      if (const RetransmitTracker* rtx = reply_net_->retransmit()) {
        obs.live_packets += rtx->pending();
      }
      if (obs.live_packets > 0) {
        Cycle oldest = request_net_->arena().oldest_created(cycle_);
        if (!overlay_) {
          oldest = std::min(oldest, reply_net_->arena().oldest_created(cycle_));
        }
        if (const RetransmitTracker* rtx = reply_net_->retransmit()) {
          oldest = std::min(oldest, rtx->oldest_pending_created(cycle_));
        }
        obs.oldest_created = oldest;
        obs.has_oldest = true;
      }
      return obs;
    };
    const auto audit = [this]() {
      std::string err = request_net_->validate_credit_invariants();
      if (err.empty() && !overlay_) {
        err = reply_net_->validate_credit_invariants();
      }
      return err;
    };
    const WatchdogTripKind kind = watchdog_->poll(cycle_, observe, audit);
    if (kind != WatchdogTripKind::kNone) {
      std::ostringstream summary;
      summary << "watchdog: " << watchdog_trip_name(kind) << " at cycle "
              << cycle_ << " — " << watchdog_->detail();
      // The dump reads deferred stats (MC queue-occupancy means): flush the
      // bookkeeping of sleeping components first.
      sync_activity();
      throw WatchdogTrip(kind, summary.str(),
                         diagnostic_dump(summary.str()));
    }
  }
  if (prof_) {
    prof_->end(obs::ProfPhase::kWatchdog);
    prof_->on_cycle_end(now);
  }
}

void GpgpuSim::step_networks(Cycle now) {
  request_net_->step(now);
  if (overlay_) {
    overlay_->step(now);
  } else {
    reply_net_->step(now);
  }
}

void GpgpuSim::run(Cycle cycles) {
  for (Cycle i = 0; i < cycles; ++i) step();
  // Flush deferred bookkeeping so any observer reading after run() (collect,
  // counter dumps, diagnostic probes) sees always-on-identical state.
  sync_activity();
}

void GpgpuSim::run_with_warmup() {
  run(cfg_.warmup_cycles);
  reset_stats();
  run(cfg_.run_cycles);
}

void GpgpuSim::sync_activity() {
  for (auto& c : cores_) c->sync_idle(cycle_);
  for (auto& m : mcs_) m->sync_idle(cycle_);
}

void GpgpuSim::reset_stats() {
  // Book slept cycles against the epoch being closed, not the one starting.
  sync_activity();
  request_net_->reset_stats();
  reply_net_->reset_stats();
  if (overlay_) overlay_->stats().reset();
  for (auto& c : cores_) c->reset_stats();
  for (auto& m : mcs_) m->reset_stats();
  for (auto& ni : reply_inject_) {
    if (ni) ni->reset_stats();
  }
  for (auto& cl : clients_) cl->reset_stats();
  for (auto& g : gates_) g->reset_stats();
  if (degrade_) degrade_->reset_stats();
  pre_trip_base_ = watchdog_ ? watchdog_->pre_trip_count() : 0;
  // Warmup traffic never leaks into measured attribution; packets in flight
  // across the reset simply go unattributed (their remaining hooks no-op).
  if (attr_) attr_->clear();
  if (prof_) prof_->clear();
  measure_start_ = cycle_;
  if (sampler_) {
    // Warmup windows never leak into the series: drop them and re-baseline
    // against the just-reset counters.
    sampler_->clear();
    obs_base_ = capture_obs_baseline();
    sample_anchor_ = cycle_;
  }
}

// ---------------------------------------------------------- Observability

void GpgpuSim::attach_tracer(obs::PacketTracer* t) {
  tracer_ = t;
  attach_observers();
}

void GpgpuSim::attach_attributor(obs::LatencyAttributor* a) {
  attr_ = a;
  if (a) a->set_topology(fabric_, cfg_.num_vcs);
  attach_observers();
}

void GpgpuSim::attach_observers() {
  request_net_->set_observers({tracer_, attr_, 0});
  reply_net_->set_observers({tracer_, attr_, 1});
}

void GpgpuSim::enable_sampling(Cycle interval) {
  if (interval == 0) {
    sampler_.reset();
    return;
  }
  sampler_ = std::make_unique<obs::TelemetrySampler>(interval);
  obs_base_ = capture_obs_baseline();
  sample_anchor_ = cycle_;
}

void GpgpuSim::flush_sampler() {
  if (sampler_ && cycle_ > sample_anchor_) take_sample();
}

GpgpuSim::ObsBaseline GpgpuSim::capture_obs_baseline() const {
  ObsBaseline b;
  for (const auto& c : cores_) b.warp_instructions += c->warp_instructions();
  const NocStats& req = request_net_->stats();
  b.req_injected = req.packets_injected;
  b.req_delivered = req.total_packets();
  const NocStats& rep = overlay_ ? overlay_->stats() : reply_net_->stats();
  b.rep_injected = rep.packets_injected;
  b.rep_delivered = rep.total_packets();
  b.req_link_flits = request_net_->internal_flits_total();
  for (const auto& mc : mcs_) b.mc_stall_cycles += mc->stall_cycles();
  if (!overlay_) {
    b.rep_link_flits = reply_net_->internal_flits_total();
    b.flits_corrupted = reply_net_->stats().flits_corrupted;
    if (const RetransmitTracker* rtx = reply_net_->retransmit()) {
      b.retransmits = rtx->retransmitted();
    }
  }
  for (const auto& cl : clients_) b.requests_shed += cl->shed();
  if (clients_.empty()) {
    for (const auto& g : gates_) b.requests_shed += g->shed();
  }
  if (watchdog_) b.pre_trips = watchdog_->pre_trip_count();
  return b;
}

void GpgpuSim::take_sample() {
  const Cycle window = cycle_ - sample_anchor_;
  if (window == 0) return;
  const ObsBaseline cur = capture_obs_baseline();
  const double w = static_cast<double>(window);

  obs::TelemetrySample s;
  s.cycle = cycle_;
  s.window = window;
  s.ipc =
      static_cast<double>(cur.warp_instructions - obs_base_.warp_instructions) /
      w;
  s.request_inject_rate =
      static_cast<double>(cur.req_injected - obs_base_.req_injected) / w;
  s.request_deliver_rate =
      static_cast<double>(cur.req_delivered - obs_base_.req_delivered) / w;
  s.reply_inject_rate =
      static_cast<double>(cur.rep_injected - obs_base_.rep_injected) / w;
  s.reply_deliver_rate =
      static_cast<double>(cur.rep_delivered - obs_base_.rep_delivered) / w;
  if (const std::uint32_t links = request_net_->num_internal_links()) {
    s.request_link_util =
        static_cast<double>(cur.req_link_flits - obs_base_.req_link_flits) /
        (w * links);
  }
  if (!overlay_) {
    if (const std::uint32_t links = reply_net_->num_internal_links()) {
      s.reply_link_util =
          static_cast<double>(cur.rep_link_flits - obs_base_.rep_link_flits) /
          (w * links);
    }
    s.ni_occupancy_pkts = reply_ni_occupancy_now();
    s.buffered_flits = request_net_->buffered_flits_total() +
                       reply_net_->buffered_flits_total();
  } else {
    s.buffered_flits = request_net_->buffered_flits_total();
  }
  s.mc_stall_rate =
      static_cast<double>(cur.mc_stall_cycles - obs_base_.mc_stall_cycles) /
      (w * static_cast<double>(mcs_.size()));
  s.live_packets = txns_.live();
  s.retransmits = cur.retransmits - obs_base_.retransmits;
  s.flits_corrupted = cur.flits_corrupted - obs_base_.flits_corrupted;
  s.degrade_state = static_cast<int>(
      degrade_ ? degrade_->state() : DegradeState::kNormal);
  s.requests_shed = cur.requests_shed - obs_base_.requests_shed;
  s.pre_trip_warnings = cur.pre_trips - obs_base_.pre_trips;

  sampler_->push(s);
  obs_base_ = cur;
  sample_anchor_ = cycle_;
}

double GpgpuSim::reply_ni_occupancy_now() const {
  if (reply_inject_.empty()) return 0.0;
  double occ = 0.0;
  for (const auto& ni : reply_inject_) {
    occ += static_cast<double>(ni->occupancy_packets());
  }
  return occ / static_cast<double>(reply_inject_.size());
}

std::uint64_t GpgpuSim::component_steps(obs::ProfGroup g) const {
  std::uint64_t sum = 0;
  switch (g) {
    case obs::ProfGroup::kCores:
      for (const auto& c : cores_) sum += c->steps();
      break;
    case obs::ProfGroup::kMcs:
      for (const auto& m : mcs_) sum += m->steps();
      break;
    case obs::ProfGroup::kInjectNis:
      for (const auto& ni : request_inject_) sum += ni->steps();
      for (const auto& ni : reply_inject_) sum += ni ? ni->steps() : 0;
      break;
    case obs::ProfGroup::kEjectNis:
      for (const auto& ni : request_eject_) sum += ni->steps();
      for (const auto& ni : reply_eject_) sum += ni->steps();
      break;
    case obs::ProfGroup::kRouters:
      for (NodeId n = 0; n < static_cast<NodeId>(fabric_.nodes()); ++n) {
        sum += request_net_->router(n).steps() + reply_net_->router(n).steps();
      }
      break;
  }
  return sum;
}

obs::CounterDump GpgpuSim::counters() const {
  obs::CounterDump d;
  d.add("sim.cycles", static_cast<std::uint64_t>(cycle_));
  d.add("sim.live_txns", static_cast<std::uint64_t>(txns_.live()));

  for (const auto& c : cores_) {
    const std::string p = "core" + std::to_string(c->core_id()) + ".";
    d.add(p + "warp_instructions", c->warp_instructions());
    d.add(p + "requests_sent", c->requests_sent());
    d.add(p + "issue_stall_cycles", c->issue_stall_cycles());
    d.add(p + "l1.hits", c->l1().hits());
    d.add(p + "l1.misses", c->l1().misses());
  }

  for (const auto& cl : clients_) {
    const std::string p = "client" + std::to_string(cl->node()) + ".";
    d.add(p + "offered", cl->offered());
    d.add(p + "completed", cl->completed());
    d.add(p + "shed", cl->shed());
    d.add(p + "defer_events", cl->defer_events());
    d.add(p + "backlog", static_cast<double>(cl->backlog()));
    d.add(p + "e2e_latency", cl->e2e_latency());
  }

  for (std::size_t i = 0; i < gates_.size(); ++i) {
    const std::string p = "adm.cc" + std::to_string(i) + ".";
    d.add(p + "admitted", gates_[i]->admitted());
    d.add(p + "deferred", gates_[i]->deferred());
    d.add(p + "shed", gates_[i]->shed());
  }
  if (degrade_) {
    d.add("degrade.state",
          static_cast<double>(static_cast<int>(degrade_->state())));
    d.add("degrade.transitions", degrade_->transitions());
    d.add("degrade.cycles_throttled",
          static_cast<std::uint64_t>(
              degrade_->cycles_in(DegradeState::kThrottled)));
    d.add("degrade.cycles_shedding",
          static_cast<std::uint64_t>(
              degrade_->cycles_in(DegradeState::kShedding)));
  }
  if (watchdog_) {
    d.add("watchdog.pre_trip_warnings", watchdog_->pre_trip_count());
  }

  for (const auto& mc : mcs_) {
    const std::string p = "mc" + std::to_string(mc->node()) + ".";
    d.add(p + "stall_cycles", static_cast<std::uint64_t>(mc->stall_cycles()));
    d.add(p + "requests_served", mc->requests_served());
    d.add(p + "reply_backlog", static_cast<double>(mc->reply_backlog()));
    d.add(p + "l2.hits", mc->l2().hits());
    d.add(p + "l2.misses", mc->l2().misses());
    d.add(p + "dram.accesses", mc->dram().accesses());
    d.add(p + "dram.row_hits", mc->dram().row_hits());
    d.add(p + "dram.queue_depth",
          static_cast<double>(mc->dram().queue_depth()));
  }

  const auto add_net = [&d](const Network& net, const std::string& p) {
    d.add(p + "packets_injected", net.stats().packets_injected);
    d.add(p + "packets_delivered", net.stats().total_packets());
    d.add(p + "movement", net.movement_count());
    d.add(p + "buffered_flits",
          static_cast<double>(net.buffered_flits_total()));
    for (std::size_t t = 0; t < 4; ++t) {
      d.add(p + "latency." + packet_type_name(static_cast<PacketType>(t)),
            net.stats().latency_hist[t]);
    }
  };
  add_net(*request_net_, "request.");
  if (!overlay_) {
    add_net(*reply_net_, "reply.");
    d.add("reply.ni_occupancy_pkts", reply_ni_occupancy_now());
    if (const RetransmitTracker* rtx = reply_net_->retransmit()) {
      d.add("reply.retransmitted", rtx->retransmitted());
      d.add("reply.recovered", rtx->recovered());
      d.add("reply.lost", rtx->lost());
    }
  }
  return d;
}

std::string GpgpuSim::diagnostic_dump(const std::string& reason) const {
  std::ostringstream os;
  os << "==== arinoc diagnostic dump (cycle " << cycle_ << ") ====\n";
  if (!reason.empty()) os << "trigger: " << reason << "\n";

  const auto dump_net = [&os](const Network& net, Cycle now) {
    const topo::Fabric& fab = net.fabric();
    const PacketArena& arena = net.arena();
    os << "network '" << net.params().name << "': " << arena.live()
       << " live packet(s)\n";
    // Oldest live packets first-hand: id, type, route, age.
    struct LivePkt {
      PacketId id;
      Cycle created;
    };
    std::vector<LivePkt> live;
    for (PacketId id = 0; id < static_cast<PacketId>(arena.capacity()); ++id) {
      if (arena.is_live(id)) live.push_back({id, arena.at(id).created});
    }
    std::sort(live.begin(), live.end(),
              [](const LivePkt& a, const LivePkt& b) {
                return a.created < b.created;
              });
    const std::size_t show = std::min<std::size_t>(live.size(), 8);
    for (std::size_t i = 0; i < show; ++i) {
      const Packet& p = arena.at(live[i].id);
      os << "  pkt " << live[i].id << " " << packet_type_name(p.type) << " "
         << p.src << "->" << p.dest << " age " << (now - p.created)
         << " cycles\n";
    }
    if (live.size() > show) {
      os << "  ... and " << live.size() - show << " more\n";
    }
    // Non-empty router input VCs and ejection backlogs.
    for (NodeId n = 0; n < static_cast<NodeId>(fab.nodes()); ++n) {
      const Router& r = net.router(n);
      std::ostringstream row;
      for (int d = 0; d < fab.max_ports(); ++d) {
        for (std::uint32_t vc = 0; vc < net.params().num_vcs; ++vc) {
          const std::size_t b = r.input_buffered(d, static_cast<int>(vc));
          if (b > 0) {
            row << " " << fab.port_name(d) << "/vc" << vc << "=" << b;
          }
        }
      }
      if (r.ejection_backlog() > 0) row << " eject=" << r.ejection_backlog();
      const std::string s = row.str();
      if (!s.empty()) os << "  router " << n << " occupancy:" << s << "\n";
    }
    if (const FaultInjector* fi = net.fault()) {
      const std::string blocked = fi->describe_blocked();
      if (!blocked.empty()) os << "  blocked links:\n" << blocked;
    }
    if (const RetransmitTracker* rtx = net.retransmit()) {
      os << "  retransmission: " << rtx->pending() << " pending, "
         << rtx->retransmitted() << " retransmitted, " << rtx->lost()
         << " lost\n";
    }
  };
  dump_net(*request_net_, cycle_);
  if (!overlay_) dump_net(*reply_net_, cycle_);

  for (const auto& mc : mcs_) {
    os << "mc node " << mc->node() << ": stall_cycles=" << mc->stall_cycles()
       << " reply_backlog=" << mc->reply_backlog()
       << " mean_request_q=" << mc->mean_request_q() << "\n";
  }
  if (degrade_) {
    std::uint64_t shed = 0;
    for (const auto& cl : clients_) shed += cl->shed();
    if (clients_.empty()) {
      for (const auto& g : gates_) shed += g->shed();
    }
    os << "degradation: state=" << degrade_state_name(degrade_->state())
       << " transitions=" << degrade_->transitions() << " shed=" << shed
       << "\n";
  }
  for (const auto& cl : clients_) {
    if (cl->backlog() == 0 && cl->in_flight() == 0) continue;
    os << "client node " << cl->node() << ": backlog=" << cl->backlog()
       << " in_flight=" << cl->in_flight() << " offered=" << cl->offered()
       << " completed=" << cl->completed() << " shed=" << cl->shed() << "\n";
  }
  os << "live transactions: " << txns_.live() << "\n";
  if (tracer_ && tracer_->size() > 0) {
    os << "last trace events:\n" << tracer_->tail_text(16);
  }
  if (sampler_ && !sampler_->samples().empty()) {
    os << "last telemetry sample: " << sampler_->last_jsonl() << "\n";
  }
  os << "====\n";
  return os.str();
}

Metrics GpgpuSim::collect() const {
  Metrics m;
  m.cycles = cycle_ - measure_start_;
  const double cycles_d = m.cycles ? static_cast<double>(m.cycles) : 1.0;

  for (const auto& c : cores_) m.warp_instructions += c->warp_instructions();
  m.ipc = static_cast<double>(m.warp_instructions) / cycles_d;

  const NocStats& req = request_net_->stats();
  const NocStats& rep = overlay_ ? overlay_->stats() : reply_net_->stats();
  m.request_latency = req.mean_latency_all();
  m.reply_latency = rep.mean_latency_all();
  const LogHistogram req_hist = req.latency_hist_all();
  const LogHistogram rep_hist = rep.latency_hist_all();
  m.request_latency_p50 = req_hist.p50();
  m.request_latency_p95 = req_hist.p95();
  m.request_latency_p99 = req_hist.p99();
  m.reply_latency_p50 = rep_hist.p50();
  m.reply_latency_p95 = rep_hist.p95();
  m.reply_latency_p99 = rep_hist.p99();
  m.request_latency_p999 = req_hist.percentile(99.9);
  m.reply_latency_p999 = rep_hist.percentile(99.9);
  for (std::size_t t = 0; t < 4; ++t) {
    m.latency_p99_by_type[t] = is_reply(static_cast<PacketType>(t))
                                   ? rep.latency_hist[t].p99()
                                   : req.latency_hist[t].p99();
  }

  // Serving / overload robustness. Shed/defer counts come from the clients
  // when they exist (their totals include queue overflow and retry
  // exhaustion) and from the gates alone in closed-loop admission runs —
  // never both, so nothing double-counts.
  if (!clients_.empty()) {
    LogHistogram e2e;
    for (const auto& cl : clients_) {
      m.requests_offered += cl->offered();
      m.requests_completed += cl->completed();
      m.requests_shed += cl->shed();
      m.requests_deferred += cl->defer_events();
      m.queue_drops += cl->queue_drops();
      e2e.merge(cl->e2e_latency());
    }
    const double per_cc = cycles_d * static_cast<double>(clients_.size());
    m.offered_rate = static_cast<double>(m.requests_offered) / per_cc;
    m.goodput = static_cast<double>(m.requests_completed) / per_cc;
    m.e2e_latency_p50 = e2e.p50();
    m.e2e_latency_p99 = e2e.p99();
    m.e2e_latency_p999 = e2e.percentile(99.9);
  } else {
    for (const auto& g : gates_) {
      m.requests_shed += g->shed();
      m.requests_deferred += g->deferred();
    }
  }
  if (degrade_) {
    m.degrade_transitions = degrade_->transitions();
    m.cycles_normal = degrade_->cycles_in(DegradeState::kNormal);
    m.cycles_throttled = degrade_->cycles_in(DegradeState::kThrottled);
    m.cycles_shedding = degrade_->cycles_in(DegradeState::kShedding);
  }
  if (watchdog_) {
    m.watchdog_pre_trips = watchdog_->pre_trip_count() - pre_trip_base_;
  }
  for (std::size_t t = 0; t < 4; ++t) {
    m.flits_by_type[t] = req.flits_delivered[t] + rep.flits_delivered[t];
    m.packets_by_type[t] = req.packets_delivered[t] + rep.packets_delivered[t];
  }

  for (const auto& mc : mcs_) m.mc_stall_cycles += mc->stall_cycles();

  if (!overlay_) {
    m.reply_internal_util = reply_net_->internal_link_utilization(m.cycles);
    m.reply_injection_util =
        reply_net_->injection_link_utilization(m.cycles, fabric_.mc_nodes());
    double occ = 0.0;
    for (const auto& ni : reply_inject_) occ += ni->mean_occupancy_packets();
    m.ni_occupancy_pkts = occ / static_cast<double>(reply_inject_.size());
  }
  m.request_internal_util = request_net_->internal_link_utilization(m.cycles);
  m.request_injection_util =
      request_net_->injection_link_utilization(m.cycles, fabric_.cc_nodes());

  std::uint64_t l1_h = 0, l1_m = 0, l2_h = 0, l2_m = 0;
  for (const auto& c : cores_) {
    l1_h += c->l1().hits();
    l1_m += c->l1().misses();
  }
  std::uint64_t row_hits = 0, dram_acc = 0, dram_act = 0;
  for (const auto& mc : mcs_) {
    l2_h += mc->l2().hits();
    l2_m += mc->l2().misses();
    row_hits += mc->dram().row_hits();
    dram_acc += mc->dram().accesses();
    dram_act += mc->dram().activates();
  }
  m.l1_hit_rate = (l1_h + l1_m) ? double(l1_h) / double(l1_h + l1_m) : 0.0;
  m.l2_hit_rate = (l2_h + l2_m) ? double(l2_h) / double(l2_h + l2_m) : 0.0;
  m.dram_row_hit_rate = dram_acc ? double(row_hits) / double(dram_acc) : 0.0;

  // Fault / resilience counters (reply network only — the campaign target).
  if (!overlay_) {
    const NocStats& rs = reply_net_->stats();
    m.flits_corrupted = rs.flits_corrupted;
    m.packets_corrupted = rs.packets_corrupted;
    m.duplicates_dropped = rs.duplicates_dropped;
    m.packets_lost = rs.packets_lost;
    if (const FaultInjector* fi = reply_net_->fault()) {
      m.credits_lost = fi->counters().credits_dropped;
      m.link_stall_events = fi->counters().stall_events;
      m.port_failures = fi->counters().port_failures;
    }
    if (const RetransmitTracker* rtx = reply_net_->retransmit()) {
      m.packets_retransmitted = rtx->retransmitted();
      m.packets_recovered = rtx->recovered();
      m.packets_lost += rtx->lost();
    }
  }

  // Activity counters for the energy model.
  ActivityCounters& a = m.activity;
  auto add_net = [&a](const Network& net) {
    const topo::Fabric& fab = net.fabric();
    std::uint64_t link_flits = 0;
    for (NodeId n = 0; n < static_cast<NodeId>(fab.nodes()); ++n) {
      const Router& r = net.router(n);
      for (int d = 0; d < fab.max_ports(); ++d) link_flits += r.flits_sent(d);
      a.noc_crossbar += r.crossbar_traversals();
      a.noc_buffer_ops += 2 * (r.flits_injected() + r.flits_ejected());
    }
    a.noc_link_flits += link_flits;
    a.noc_buffer_ops += 2 * link_flits;  // Write + read per buffered hop.
  };
  add_net(*request_net_);
  if (!overlay_) add_net(*reply_net_);
  a.dram_activates = dram_act;
  a.dram_accesses = dram_acc;
  a.l2_accesses = l2_h + l2_m;
  a.l1_accesses = l1_h + l1_m;
  a.core_instructions = m.warp_instructions;
  a.cycles = m.cycles;
  if (!overlay_) {
    if (const RetransmitTracker* rtx = reply_net_->retransmit()) {
      a.noc_retx_flits = rtx->retransmitted_flits();
    }
  }
  // Latency-attribution summary (inert without an attached attributor).
  if (attr_) {
    m.attr_enabled = true;
    m.attr_violations = attr_->conservation_violations();
    for (std::uint8_t net = 0; net < 2; ++net) {
      auto& share = net == 0 ? m.request_stage_share : m.reply_stage_share;
      const double e2e = static_cast<double>(attr_->e2e_total(net));
      if (e2e > 0) {
        for (std::size_t i = 0; i < obs::kNumAttrStages; ++i) {
          share[i] = static_cast<double>(attr_->stage_total(
                         net, static_cast<obs::AttrStage>(i))) /
                     e2e;
        }
      }
    }
    m.bottleneck = attr_->top_label();
  }

  m.energy = EnergyModel{}.evaluate(a);
  return m;
}

}  // namespace arinoc
