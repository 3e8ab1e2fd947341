#include "noc/network.hpp"

#include <cassert>
#include <sstream>

#include "obs/sink.hpp"

namespace arinoc {

Network::Network(const NetworkParams& params, const topo::Fabric* fabric)
    : params_(params), fabric_(fabric) {
  const int nodes = fabric->nodes();
  const int ports = fabric->max_ports();
  base_link_latency_ = std::max<std::uint32_t>(1, params.link_latency);
  routers_.reserve(static_cast<std::size_t>(nodes));
  for (NodeId n = 0; n < static_cast<NodeId>(nodes); ++n) {
    RouterParams rp;
    rp.node = n;
    rp.num_vcs = params.num_vcs;
    rp.vc_depth_flits = params.vc_depth_flits;
    rp.routing = params.routing;
    rp.non_atomic_vc = params.non_atomic_vc;
    rp.priority_levels = params.priority_levels;
    rp.starvation_threshold = params.starvation_threshold;
    rp.ejection_capacity_flits = 4 * params.vc_depth_flits;
    // Pure-router nodes (cmesh hubs) carry no endpoints, so neither special
    // treatment applies there.
    const bool special =
        (params.treat_mcs_specially && fabric->is_mc(n)) ||
        (params.treat_ccs_specially && fabric->is_endpoint(n) &&
         !fabric->is_mc(n));
    rp.injection_speedup = special ? params.mc_injection_speedup : 1;
    rp.num_injection_ports = special ? params.mc_injection_ports : 1;
    routers_.push_back(std::make_unique<Router>(rp, fabric, &arena_));
  }
  // Wire neighbouring routers.
  for (NodeId n = 0; n < static_cast<NodeId>(nodes); ++n) {
    for (int port = 0; port < ports; ++port) {
      const NodeId nb = fabric->neighbor(n, port);
      if (nb == kInvalidNode) continue;
      routers_[static_cast<std::size_t>(n)]->connect_output(
          port, params.vc_depth_flits);
      routers_[static_cast<std::size_t>(n)]->connect_input(port);
      ++num_internal_links_;
    }
  }
  // Ring size covers the slowest link (base + worst serdes extra); uniform
  // fabrics keep the original max(1, link_latency) size and slot math.
  ring_slots_ = base_link_latency_ + fabric->max_extra_latency();
  // Every network starts on one domain, with all routers running the first
  // cycle; empty ones go straight to sleep.
  serial_ = topo::partition_fabric(*fabric, 1);
  set_partition(serial_);

  if (params.fault.any_enabled()) {
    fault_ = std::make_unique<FaultInjector>(params.fault, fabric);
    if (params.fault.recovery) {
      rtx_ = std::make_unique<RetransmitTracker>(params.fault, this, fabric,
                                                 base_link_latency_);
    }
    if (params.fault.credit_loss_on()) {
      credits_lost_.assign(static_cast<std::size_t>(nodes) *
                               static_cast<std::size_t>(ports) *
                               params.num_vcs,
                           0);
    }
  }
}

Network::~Network() = default;

std::uint16_t Network::flits_for(PacketType type) const {
  if (!is_long_packet(type)) return 1;
  return static_cast<std::uint16_t>(
      1 + ceil_div(data_payload_bits, params_.link_width_bits));
}

PacketId Network::make_packet(PacketType type, NodeId src, NodeId dest,
                              std::uint8_t priority, std::uint64_t txn,
                              Cycle now) {
  ++stats_.packets_injected;
  return arena_.create(type, src, dest, flits_for(type), priority, txn, now);
}

void Network::finish_packet(PacketId id, Cycle now) {
  Packet& pkt = arena_.at(id);
  pkt.ejected = now;
  stats_.record_delivery(pkt, now);
  if (sink_) sink_->deliver(id, pkt.type, pkt.dest, now);
  arena_.retire(id);
}

void Network::set_partition(const topo::DomainPartition& part) {
  if (&part == part_) return;
  assert(part.domain_of.size() == static_cast<std::size_t>(fabric_->nodes()));
  // Merging ahead of schedule is exact: events sit in the destination ring
  // until their slot fires.
  merge_outboxes();
  std::vector<Domain> old = std::move(dom_);
  dom_.assign(part.num_domains, Domain{});
  for (std::uint32_t d = 0; d < part.num_domains; ++d) {
    dom_[d].flit_ring.resize(ring_slots_);
    dom_[d].credit_ring.resize(ring_slots_);
    dom_[d].act.resize(part.members[d].size());
  }
  // Re-bucket in-flight events by destination domain. The scan visits the
  // old domains in ascending order and is stable, so per-(dst, port)
  // arrival order is preserved.
  for (std::size_t s = 0; s < ring_slots_; ++s) {
    for (const Domain& od : old) {
      for (const FlitEvent& e : od.flit_ring[s]) {
        dom_[part.domain_of[static_cast<std::size_t>(e.dst)]]
            .flit_ring[s]
            .push_back(e);
      }
      for (const CreditEvent& e : od.credit_ring[s]) {
        dom_[part.domain_of[static_cast<std::size_t>(e.dst)]]
            .credit_ring[s]
            .push_back(e);
      }
    }
  }
  // Move every router's wake hook and pending wake (all pending at
  // construction).
  for (NodeId n = 0; n < static_cast<NodeId>(fabric_->nodes()); ++n) {
    const std::size_t sn = static_cast<std::size_t>(n);
    const bool awake =
        !part_ || old[part_->domain_of[sn]].act.contains(part_->local_of[sn]);
    Domain& dom = dom_[part.domain_of[sn]];
    routers_[sn]->set_activity_hook(&dom.act, part.local_of[sn]);
    if (awake) dom.act.wake(part.local_of[sn]);
  }
  part_ = &part;
}

void Network::merge_outboxes() {
  for (Domain& dom : dom_) {
    for (const auto& [slot, e] : dom.out_flits) {
      dom_[part_->domain_of[static_cast<std::size_t>(e.dst)]]
          .flit_ring[slot]
          .push_back(e);
    }
    dom.out_flits.clear();
    for (const auto& [slot, e] : dom.out_credits) {
      dom_[part_->domain_of[static_cast<std::size_t>(e.dst)]]
          .credit_ring[slot]
          .push_back(e);
    }
    dom.out_credits.clear();
  }
}

void Network::step_router_domain(NodeId n, Cycle now, std::size_t send_slot,
                                 Domain& dom) {
  dom.scratch_flits.clear();
  dom.scratch_credits.clear();
  routers_[static_cast<std::size_t>(n)]->step(now, &dom.scratch_flits,
                                              &dom.scratch_credits);
  for (const OutboundFlit& of : dom.scratch_flits) {
    const NodeId dst = fabric_->neighbor(n, of.out_dir);
    assert(dst != kInvalidNode);
    FlitEvent ev{dst, fabric_->peer_port(n, of.out_dir), of.out_vc, of.flit};
    // corrupt_link is a const read of state drawn serially in step_begin;
    // the corruption tally is staged per-domain and folded at the barrier.
    const bool corrupted = fault_ && fault_->corrupt_link(n, of.out_dir);
    if (corrupted) {
      ev.flit.corrupted = true;
      ++dom.corrupted;
    }
    if (sink_) {
      sink_->link_depart(ev.flit.pkt, arena_.at(ev.flit.pkt).type, n,
                         of.out_dir, ev.flit.head, corrupted, now);
    }
    // Serdes (chiplet-boundary) links deliver extra cycles later; uniform
    // links land in send_slot itself.
    const std::size_t slot = slot_after(
        send_slot,
        base_link_latency_ + fabric_->link_extra_latency(n, of.out_dir));
    Domain& dd = dom_[part_->domain_of[static_cast<std::size_t>(dst)]];
    if (&dd == &dom) {
      dom.flit_ring[slot].push_back(ev);
    } else {
      dom.out_flits.emplace_back(slot, ev);
    }
  }
  for (const OutboundCredit& oc : dom.scratch_credits) {
    const NodeId up = fabric_->neighbor(n, oc.in_dir);
    assert(up != kInvalidNode);
    const int up_dir = fabric_->peer_port(n, oc.in_dir);
    // Credit-drop state for link (up, up_dir) is consumed only here — the
    // domain owning the downstream router n — so the write is exclusive;
    // only the injector's shared counter must be staged.
    if (fault_ && fault_->take_credit_drop_uncounted(up, up_dir)) {
      // The credit vanishes in flight: the upstream (up, up_dir, vc)
      // counter permanently shrinks. Recorded so the invariant audit can
      // tell intentional loss from a protocol bug.
      ++dom.credit_drops;
      if (!credits_lost_.empty()) {
        // Same exclusivity: this (up, up_dir, vc) entry belongs to link
        // up->n, and only n's domain writes it.
        ++credits_lost_[(static_cast<std::size_t>(up) *
                             static_cast<std::size_t>(fabric_->max_ports()) +
                         static_cast<std::size_t>(up_dir)) *
                            params_.num_vcs +
                        static_cast<std::size_t>(oc.vc)];
      }
      continue;
    }
    // Credits cross the same physical channel, so they take the same
    // latency (link attributes are symmetric by validation).
    const std::size_t slot = slot_after(
        send_slot,
        base_link_latency_ + fabric_->link_extra_latency(n, oc.in_dir));
    CreditEvent ev{up, up_dir, oc.vc};
    Domain& dd = dom_[part_->domain_of[static_cast<std::size_t>(up)]];
    if (&dd == &dom) {
      dom.credit_ring[slot].push_back(ev);
    } else {
      dom.out_credits.emplace_back(slot, ev);
    }
  }
}

void Network::step_begin(Cycle now) {
  // Draw this cycle's fault events and push blocked-link transitions into
  // the affected upstream routers (fault-aware routing sees them during VA).
  // begin_cycle runs unconditionally every cycle so the fault RNG stream is
  // a pure function of the cycle number, independent of router activity.
  if (fault_) {
    fault_->begin_cycle(now);
    for (const auto& [src, dir] : fault_->changed_links()) {
      routers_[static_cast<std::size_t>(src)]->set_output_blocked(
          dir, fault_->link_blocked(src, dir));
      // Defensive wake: a link transition can re-enable VC allocation at
      // the upstream router. A router holding flits is awake anyway, and
      // waking an empty router is always a no-op.
      const std::size_t sn = static_cast<std::size_t>(src);
      dom_[part_->domain_of[sn]].act.wake(part_->local_of[sn]);
    }
  }
}

void Network::step_domain(std::uint32_t d, Cycle now) {
  Domain& dom = dom_[d];
  // 1) Deliver flits and credits that finished traversing their links.
  // receive_flit wakes the destination router; credits never give an empty
  // router work (every credit-consuming action needs a buffered flit), so
  // credit delivery needs no wake.
  auto& due_flits = dom.flit_ring[ring_pos_];
  for (const FlitEvent& e : due_flits) {
    routers_[static_cast<std::size_t>(e.dst)]->receive_flit(e.in_dir, e.vc,
                                                            e.flit);
    if (sink_ && e.flit.head) sink_->head_arrive(e.flit.pkt, e.dst, now);
  }
  due_flits.clear();
  auto& due_credits = dom.credit_ring[ring_pos_];
  for (const CreditEvent& e : due_credits) {
    routers_[static_cast<std::size_t>(e.dst)]->receive_credit(e.out_dir, e.vc);
  }
  due_credits.clear();

  // 2) Step the woken routers in ascending node order — the order of the
  // full loop, so arena free-list recycling and trace-event order cannot
  // diverge — and stage their outputs onto the link pipelines. Events
  // pushed into the just-cleared slot resurface after exactly
  // `link_latency` ring advances. A router sleeps only when it holds no
  // flits at all; anything buffered (even unmovable under backpressure)
  // keeps it stepping so fairness pointers rotate exactly as in always-on
  // mode.
  const std::size_t send_slot = ring_pos_;
  const std::vector<NodeId>& members = part_->members[d];
  dom.act.drain_sorted([&](std::size_t i) {
    const NodeId n = members[i];
    step_router_domain(n, now, send_slot, dom);
    if (routers_[static_cast<std::size_t>(n)]->buffered_flits_total() > 0) {
      dom.act.wake(i);
    }
  });
  // Always-on stepping is the same drain with every router pending.
  if (!params_.activity_driven) dom.act.wake_all();
}

void Network::step_finish(Cycle now) {
  // Fold the per-domain stat staging every cycle: observers (watchdog,
  // telemetry, collect()) read these between cycles.
  for (Domain& dom : dom_) {
    stats_.flits_corrupted += dom.corrupted;
    dom.corrupted = 0;
    if (fault_ && dom.credit_drops > 0) {
      fault_->note_credits_dropped(dom.credit_drops);
      dom.credit_drops = 0;
    }
  }
  merge_outboxes();
  // Advance the link pipeline (compare-and-wrap; the ring is tiny and a
  // division per cycle is measurable in the hot loop).
  if (++ring_pos_ == ring_slots_) ring_pos_ = 0;
  // Recovery bookkeeping: retire acked retransmission entries and fire
  // NACK/timeout-driven re-injections. Runs unconditionally: timer expiry
  // must re-inject (and wake the injection NI) even when the fabric idles.
  if (rtx_) rtx_->step(now);
}

void Network::step(Cycle now) {
  step_begin(now);
  for (std::uint32_t d = 0; d < part_->num_domains; ++d) step_domain(d, now);
  step_finish(now);
}

double Network::internal_link_utilization(Cycle elapsed) const {
  if (elapsed == 0 || num_internal_links_ == 0) return 0.0;
  std::uint64_t flits = 0;
  for (const auto& r : routers_) {
    for (int dir = 0; dir < fabric_->max_ports(); ++dir) {
      flits += r->flits_sent(dir);
    }
  }
  return static_cast<double>(flits) /
         (static_cast<double>(elapsed) * num_internal_links_);
}

double Network::injection_link_utilization(
    Cycle elapsed, const std::vector<NodeId>& nodes) const {
  if (elapsed == 0 || nodes.empty()) return 0.0;
  std::uint64_t flits = 0;
  for (NodeId n : nodes) {
    flits += routers_[static_cast<std::size_t>(n)]->flits_injected();
  }
  return static_cast<double>(flits) /
         (static_cast<double>(elapsed) * nodes.size());
}

RxOutcome Network::classify_rx(PacketId id, bool corrupted, Cycle now) {
  if (rtx_) return rtx_->classify_rx(id, corrupted, now);
  return corrupted ? RxOutcome::kCorrupt : RxOutcome::kDeliver;
}

void Network::drop_packet(PacketId id, Cycle now, RxOutcome why) {
  if (sink_) {
    const Packet& pkt = arena_.at(id);
    sink_->drop(id, pkt.type, pkt.dest, static_cast<int>(why), now);
  }
  switch (why) {
    case RxOutcome::kCorrupt:
      ++stats_.packets_corrupted;
      // Without a tracker nobody will retransmit: the packet is gone.
      if (!rtx_) ++stats_.packets_lost;
      break;
    case RxOutcome::kDuplicate:
    case RxOutcome::kStale:
      ++stats_.duplicates_dropped;
      break;
    case RxOutcome::kDeliver:
      assert(false && "drop_packet called with kDeliver");
      break;
  }
  arena_.retire(id);
}

std::uint64_t Network::credits_lost_total() const {
  std::uint64_t total = 0;
  for (const std::uint32_t c : credits_lost_) total += c;
  return total;
}

void Network::set_observers(const obs::PacketSink& observers) {
  sink_ = observers.tracer || observers.attr
              ? std::make_unique<obs::PacketSink>(observers)
              : nullptr;
  for (auto& r : routers_) r->set_sink(sink_.get());
}

std::uint64_t Network::internal_flits_total() const {
  std::uint64_t flits = 0;
  for (const auto& r : routers_) {
    for (int dir = 0; dir < fabric_->max_ports(); ++dir) {
      flits += r->flits_sent(dir);
    }
  }
  return flits;
}

std::uint64_t Network::buffered_flits_total() const {
  std::uint64_t flits = 0;
  for (const auto& r : routers_) flits += r->buffered_flits_total();
  return flits;
}

std::uint64_t Network::movement_count() const {
  std::uint64_t moves = 0;
  for (const auto& r : routers_) {
    moves += r->flits_injected() + r->flits_ejected() + r->crossbar_traversals();
  }
  return moves;
}

void Network::reset_stats() {
  stats_.reset();
  for (auto& r : routers_) r->reset_stats();
  if (fault_) fault_->reset_counters();
  if (rtx_) rtx_->reset_counters();
}

std::string Network::validate_credit_invariants() const {
  for (NodeId u = 0; u < static_cast<NodeId>(fabric_->nodes()); ++u) {
    const Router& up = *routers_[static_cast<std::size_t>(u)];
    for (int dir = 0; dir < fabric_->max_ports(); ++dir) {
      if (!up.output_is_connected(dir)) continue;
      const NodeId v = fabric_->neighbor(u, dir);
      const Router& down = *routers_[static_cast<std::size_t>(v)];
      const int in_dir = fabric_->peer_port(u, dir);
      for (std::uint32_t vc = 0; vc < params_.num_vcs; ++vc) {
        // In-flight events live in the per-domain rings (the outboxes are
        // empty between cycles).
        std::uint32_t inflight_flits = 0;
        std::uint32_t inflight_credits = 0;
        const auto match_flit = [&](const FlitEvent& e) {
          if (e.dst == v && e.in_dir == in_dir && e.vc == static_cast<int>(vc))
            ++inflight_flits;
        };
        const auto match_credit = [&](const CreditEvent& e) {
          if (e.dst == u && e.out_dir == dir && e.vc == static_cast<int>(vc))
            ++inflight_credits;
        };
        for (const Domain& dom : dom_) {
          for (const auto& slot : dom.flit_ring) {
            for (const FlitEvent& e : slot) match_flit(e);
          }
          for (const auto& slot : dom.credit_ring) {
            for (const CreditEvent& e : slot) match_credit(e);
          }
        }
        // Credits the fault injector destroyed on this link are accounted
        // loss, not a protocol bug: the usable depth shrank by that much.
        std::uint32_t lost = 0;
        if (!credits_lost_.empty()) {
          lost = credits_lost_[(static_cast<std::size_t>(u) *
                                    static_cast<std::size_t>(
                                        fabric_->max_ports()) +
                                static_cast<std::size_t>(dir)) *
                                   params_.num_vcs +
                               static_cast<std::size_t>(vc)];
        }
        const std::uint32_t total =
            up.output_credits(dir, static_cast<int>(vc)) +
            static_cast<std::uint32_t>(
                down.input_buffered(in_dir, static_cast<int>(vc))) +
            inflight_flits + inflight_credits + lost;
        if (total != params_.vc_depth_flits) {
          std::ostringstream os;
          os << "credit invariant violated on link " << u << "->" << v
             << " dir " << fabric_->port_name(dir) << " vc " << vc << ": "
             << up.output_credits(dir, static_cast<int>(vc)) << " credits + "
             << down.input_buffered(in_dir, static_cast<int>(vc))
             << " buffered + " << inflight_flits << " flits in flight + "
             << inflight_credits << " credits in flight + " << lost
             << " lost = " << total << " != depth " << params_.vc_depth_flits;
          return os.str();
        }
      }
    }
  }
  return {};
}

}  // namespace arinoc
