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
    routers_.back()->set_activity_hook(&act_, static_cast<std::size_t>(n));
  }
  // Wire neighbouring routers.
  for (NodeId n = 0; n < static_cast<NodeId>(nodes); ++n) {
    for (int port = 0; port < ports; ++port) {
      const NodeId nb = fabric->neighbor(n, port);
      if (nb == kInvalidNode) continue;
      routers_[static_cast<std::size_t>(n)]->connect_output(
          port, params.vc_depth_flits);
      ++num_internal_links_;
    }
  }
  // Ring size covers the slowest link (base + worst serdes extra); uniform
  // fabrics keep the original max(1, link_latency) size and slot math.
  ring_slots_ = base_link_latency_ + fabric->max_extra_latency();
  flit_ring_.resize(ring_slots_);
  credit_ring_.resize(ring_slots_);
  // Every router runs the first cycle; empty ones go straight to sleep.
  act_.resize(static_cast<std::size_t>(nodes));
  act_.wake_all();

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
      long_packet_flits(params_.data_payload_bits, params_.link_width_bits));
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

bool Network::step_router(NodeId n, Cycle now, std::size_t send_slot) {
  scratch_flits_.clear();
  scratch_credits_.clear();
  const bool progressed = routers_[static_cast<std::size_t>(n)]->step(
      now, &scratch_flits_, &scratch_credits_);
  for (const OutboundFlit& of : scratch_flits_) {
    const NodeId dst = fabric_->neighbor(n, of.out_dir);
    assert(dst != kInvalidNode);
    FlitEvent ev{dst, fabric_->peer_port(n, of.out_dir), of.out_vc, of.flit};
    const bool corrupted = fault_ && fault_->corrupt_link(n, of.out_dir);
    if (corrupted) {
      ev.flit.corrupted = true;
      ++stats_.flits_corrupted;
    }
    if (sink_) {
      sink_->link_depart(ev.flit.pkt, arena_.at(ev.flit.pkt).type, n,
                         of.out_dir, ev.flit.head, corrupted, now);
    }
    // Serdes (chiplet-boundary) links deliver extra cycles later; uniform
    // links land in send_slot itself.
    flit_ring_[slot_after(send_slot,
                          base_link_latency_ +
                              fabric_->link_extra_latency(n, of.out_dir))]
        .push_back(ev);
  }
  for (const OutboundCredit& oc : scratch_credits_) {
    const NodeId up = fabric_->neighbor(n, oc.in_dir);
    assert(up != kInvalidNode);
    const int up_dir = fabric_->peer_port(n, oc.in_dir);
    if (fault_ && fault_->take_credit_drop(up, up_dir)) {
      // The credit vanishes in flight: the upstream (up, up_dir, vc)
      // counter permanently shrinks. Recorded so the invariant audit can
      // tell intentional loss from a protocol bug.
      if (!credits_lost_.empty()) {
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
    credit_ring_[slot_after(send_slot,
                            base_link_latency_ +
                                fabric_->link_extra_latency(n, oc.in_dir))]
        .push_back({up, up_dir, oc.vc});
  }
  return progressed;
}

void Network::step(Cycle now) {
  // 1) Draw this cycle's fault events and push blocked-link transitions
  // into the affected upstream routers (fault-aware routing sees them
  // during VA). begin_cycle runs unconditionally every cycle so the fault
  // RNG stream is a pure function of the cycle number, independent of
  // router activity.
  if (fault_) {
    fault_->begin_cycle(now);
    for (const auto& [src, dir] : fault_->changed_links()) {
      routers_[static_cast<std::size_t>(src)]->set_output_blocked(
          dir, fault_->link_blocked(src, dir));
      // A link transition can re-enable VC allocation and switch traversal
      // at the upstream router, which may be asleep on the blocked link;
      // waking an empty router is a no-op.
      act_.wake(static_cast<std::size_t>(src));
    }
  }

  // 2) Deliver flits and credits that finished traversing their links.
  // receive_flit wakes the destination router; receive_credit wakes it only
  // while it holds flits (every credit-consuming action needs one).
  auto& due_flits = flit_ring_[ring_pos_];
  for (const FlitEvent& e : due_flits) {
    routers_[static_cast<std::size_t>(e.dst)]->receive_flit(e.in_dir, e.vc,
                                                            e.flit);
    if (sink_ && e.flit.head) sink_->head_arrive(e.flit.pkt, e.dst, now);
  }
  due_flits.clear();
  auto& due_credits = credit_ring_[ring_pos_];
  for (const CreditEvent& e : due_credits) {
    routers_[static_cast<std::size_t>(e.dst)]->receive_credit(e.out_dir, e.vc);
  }
  due_credits.clear();

  // 3) Step the woken routers in ascending node order — the order of the
  // full loop, so arena free-list recycling and trace-event order cannot
  // diverge — and stage their outputs onto the link pipeline. Events
  // pushed into the just-cleared slot resurface after exactly
  // `link_latency` ring advances. A router stays awake only while it holds
  // flits and its step made progress; an empty or blocked router sleeps
  // until a wake edge (Router::set_activity_hook), and step() replays the
  // fairness-pointer rotations of the slept span.
  const std::size_t send_slot = ring_pos_;
  routers_stepped_ = act_.drain_sorted([&](std::size_t i) {
    const NodeId n = static_cast<NodeId>(i);
    if (step_router(n, now, send_slot) &&
        routers_[i]->buffered_flits_total() > 0) {
      act_.wake(i);
    }
  });
  // Always-on stepping is the same drain with every router pending.
  if (!params_.activity_driven) act_.wake_all();

  // 4) Advance the link pipeline (compare-and-wrap; the ring is tiny and a
  // division per cycle is measurable in the hot loop).
  if (++ring_pos_ == ring_slots_) ring_pos_ = 0;

  // 5) Recovery bookkeeping: retire acked retransmission entries and fire
  // NACK/timeout-driven re-injections. Runs unconditionally: timer expiry
  // must re-inject (and wake the injection NI) even when the fabric idles.
  if (rtx_) rtx_->step(now);
}

double Network::internal_link_utilization(Cycle elapsed) const {
  if (elapsed == 0 || num_internal_links_ == 0) return 0.0;
  return static_cast<double>(internal_flits_total()) /
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
        std::uint32_t inflight_flits = 0;
        std::uint32_t inflight_credits = 0;
        for (const auto& slot : flit_ring_) {
          for (const FlitEvent& e : slot) {
            if (e.dst == v && e.in_dir == in_dir &&
                e.vc == static_cast<int>(vc))
              ++inflight_flits;
          }
        }
        for (const auto& slot : credit_ring_) {
          for (const CreditEvent& e : slot) {
            if (e.dst == u && e.out_dir == dir && e.vc == static_cast<int>(vc))
              ++inflight_credits;
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
