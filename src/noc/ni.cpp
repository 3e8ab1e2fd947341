#include "noc/ni.hpp"

#include <algorithm>
#include <cassert>

#include "obs/sink.hpp"

namespace arinoc {

namespace {

/// Picks an injection VC on port `ip` that can start a packet of `flits`
/// flits; returns -1 if none is available this cycle.
int pick_injection_vc(Router& r, std::uint32_t ip, std::uint32_t flits) {
  for (std::uint32_t vc = 0; vc < r.num_vcs(); ++vc) {
    if (r.injection_vc_ready(ip, vc, flits)) return static_cast<int>(vc);
  }
  return -1;
}

}  // namespace

InjectNi::InjectNi(Network* net, NodeId node) : net_(net), node_(node) {}

void InjectNi::finish_accept(PacketId id, Cycle now) {
  // Wake for activity-driven stepping. This covers every path that can give
  // an idle NI work: first transmissions from the core/MC ports and
  // retransmissions re-injected by the RetransmitTracker.
  if (act_set_) act_set_->wake(act_idx_);
  net_->arena().at(id).created = now;
  if (RetransmitTracker* rtx = net_->retransmit()) rtx->on_accept(id, now);
  if (const obs::PacketSink* sink = net_->sink()) {
    sink->ni_enqueue(id, net_->arena().at(id).type, node_, now);
  }
}

// ---------------------------------------------------------------- Baseline
BaselineInjectNi::BaselineInjectNi(Network* net, NodeId node,
                                   std::uint32_t queue_flits)
    : InjectNi(net, node), queue_(queue_flits) {}

bool BaselineInjectNi::try_accept(PacketId id, Cycle now) {
  if (incoming_ != kInvalidPacket) return false;  // Narrow link busy.
  const Packet& pkt = net_->arena().at(id);
  if (!queue_.fits(pkt.num_flits)) return false;
  incoming_ = id;
  incoming_remaining_ = pkt.num_flits;  // One cycle per flit over the link.
  finish_accept(id, now);
  return true;
}

void BaselineInjectNi::transfer(Cycle now) {
  if (incoming_ != kInvalidPacket) {
    if (--incoming_remaining_ == 0) {
      const Packet& pkt = net_->arena().at(incoming_);
      for (std::uint16_t s = 0; s < pkt.num_flits; ++s) {
        queue_.push(PacketArena::flit_of(incoming_, s, pkt.num_flits));
      }
      ++queued_packets_;
      incoming_ = kInvalidPacket;
    }
  }
  drain_to_router(now);
}

void BaselineInjectNi::drain_to_router(Cycle now) {
  if (queue_.empty()) return;
  Router& r = router();
  if (locked_vc_ < 0) {
    const Flit& head = queue_.front();
    assert(head.head);
    const Packet& pkt = net_->arena().at(head.pkt);
    locked_vc_ = pick_injection_vc(r, 0, pkt.num_flits);
    if (locked_vc_ < 0) return;
  }
  if (r.injection_free(0, static_cast<std::uint32_t>(locked_vc_)) == 0) return;
  const Flit f = queue_.pop();
  r.inject_flit(0, static_cast<std::uint32_t>(locked_vc_), f, now);
  if (f.tail) {
    locked_vc_ = -1;
    --queued_packets_;
  }
}

std::size_t BaselineInjectNi::occupancy_flits() const { return queue_.size(); }
std::size_t BaselineInjectNi::occupancy_packets() const {
  return queued_packets_;
}

// ---------------------------------------------------------------- Enhanced
EnhancedInjectNi::EnhancedInjectNi(Network* net, NodeId node,
                                   std::uint32_t queue_flits)
    : InjectNi(net, node), queue_(queue_flits) {}

bool EnhancedInjectNi::try_accept(PacketId id, Cycle now) {
  const Packet& pkt = net_->arena().at(id);
  if (!queue_.fits(pkt.num_flits)) return false;
  // Wide W-bit links (Fig. 7a): the whole packet reaches the queue at once.
  for (std::uint16_t s = 0; s < pkt.num_flits; ++s) {
    queue_.push(PacketArena::flit_of(id, s, pkt.num_flits));
  }
  ++queued_packets_;
  finish_accept(id, now);
  return true;
}

void EnhancedInjectNi::transfer(Cycle now) {
  if (queue_.empty()) return;
  Router& r = router();
  if (locked_vc_ < 0) {
    const Flit& head = queue_.front();
    assert(head.head);
    const Packet& pkt = net_->arena().at(head.pkt);
    locked_vc_ = pick_injection_vc(r, 0, pkt.num_flits);
    if (locked_vc_ < 0) return;
  }
  // Narrow link AB: one flit per cycle at most.
  if (r.injection_free(0, static_cast<std::uint32_t>(locked_vc_)) == 0) return;
  const Flit f = queue_.pop();
  r.inject_flit(0, static_cast<std::uint32_t>(locked_vc_), f, now);
  if (f.tail) {
    locked_vc_ = -1;
    --queued_packets_;
  }
}

std::size_t EnhancedInjectNi::occupancy_flits() const { return queue_.size(); }
std::size_t EnhancedInjectNi::occupancy_packets() const {
  return queued_packets_;
}

// -------------------------------------------------------------- SplitQueue
SplitQueueInjectNi::SplitQueueInjectNi(Network* net, NodeId node,
                                       std::uint32_t total_flits,
                                       std::uint32_t num_queues)
    : InjectNi(net, node) {
  // Same total buffer budget as the single queue (§6.2 fairness note); every
  // split queue must hold at least one long packet (§4.1).
  const std::uint32_t long_flits = net->flits_for(PacketType::kReadReply);
  const std::uint32_t per_queue =
      std::max(total_flits / std::max(1u, num_queues), long_flits);
  queues_.resize(num_queues);
  for (auto& q : queues_) q.buf.set_capacity(per_queue);
}

bool SplitQueueInjectNi::try_accept(PacketId id, Cycle now) {
  const Packet& pkt = net_->arena().at(id);
  // Multiplexer distributes incoming packets over split queues (Fig. 7b);
  // round-robin over queues with room for the whole packet.
  for (std::size_t k = 0; k < queues_.size(); ++k) {
    const std::size_t qi = (accept_rr_ + k) % queues_.size();
    SplitQueue& q = queues_[qi];
    if (!q.buf.fits(pkt.num_flits)) continue;
    for (std::uint16_t s = 0; s < pkt.num_flits; ++s) {
      q.buf.push(PacketArena::flit_of(id, s, pkt.num_flits));
    }
    ++q.packets;
    accept_rr_ = (qi + 1) % queues_.size();
    finish_accept(id, now);
    return true;
  }
  return false;
}

void SplitQueueInjectNi::transfer(Cycle now) {
  Router& r = router();
  // Each split queue drives its own narrow link into its hard-wired VC:
  // up to num_queues() flits enter the router per cycle.
  for (std::uint32_t qi = 0; qi < queues_.size(); ++qi) {
    SplitQueue& q = queues_[qi];
    if (q.buf.empty()) continue;
    if (!q.locked) {
      const Flit& head = q.buf.front();
      assert(head.head);
      const Packet& pkt = net_->arena().at(head.pkt);
      if (!r.injection_vc_ready(0, qi, pkt.num_flits)) continue;
      q.locked = true;
    }
    if (r.injection_free(0, qi) == 0) continue;
    const Flit f = q.buf.pop();
    r.inject_flit(0, qi, f, now);
    if (f.tail) {
      q.locked = false;
      --q.packets;
    }
  }
}

std::size_t SplitQueueInjectNi::occupancy_flits() const {
  std::size_t s = 0;
  for (const auto& q : queues_) s += q.buf.size();
  return s;
}
std::size_t SplitQueueInjectNi::occupancy_packets() const {
  std::size_t s = 0;
  for (const auto& q : queues_) s += q.packets;
  return s;
}

// --------------------------------------------------------------- MultiPort
MultiPortInjectNi::MultiPortInjectNi(Network* net, NodeId node,
                                     std::uint32_t queue_flits)
    : InjectNi(net, node), queue_(queue_flits) {}

bool MultiPortInjectNi::try_accept(PacketId id, Cycle now) {
  const Packet& pkt = net_->arena().at(id);
  if (!queue_.fits(pkt.num_flits)) return false;
  for (std::uint16_t s = 0; s < pkt.num_flits; ++s) {
    queue_.push(PacketArena::flit_of(id, s, pkt.num_flits));
  }
  ++queued_packets_;
  finish_accept(id, now);
  return true;
}

void MultiPortInjectNi::transfer(Cycle now) {
  if (queue_.empty()) return;
  Router& r = router();
  if (!streaming_) {
    const Flit& head = queue_.front();
    assert(head.head);
    const Packet& pkt = net_->arena().at(head.pkt);
    // Try the preferred (alternating) port first, then the others.
    const std::uint32_t ports = r.num_injection_ports();
    for (std::uint32_t k = 0; k < ports; ++k) {
      const std::uint32_t p = (current_port_ + k) % ports;
      const int vc = pick_injection_vc(r, p, pkt.num_flits);
      if (vc >= 0) {
        current_port_ = p;
        locked_vc_ = vc;
        streaming_ = true;
        break;
      }
    }
    if (!streaming_) return;
  }
  // The single NI queue read port still supplies at most 1 flit/cycle — the
  // limitation the paper points out for this scheme.
  if (r.injection_free(current_port_, static_cast<std::uint32_t>(locked_vc_)) ==
      0) {
    return;
  }
  const Flit f = queue_.pop();
  r.inject_flit(current_port_, static_cast<std::uint32_t>(locked_vc_), f, now);
  if (f.tail) {
    streaming_ = false;
    --queued_packets_;
    current_port_ = (current_port_ + 1) % r.num_injection_ports();
  }
}

std::size_t MultiPortInjectNi::occupancy_flits() const { return queue_.size(); }
std::size_t MultiPortInjectNi::occupancy_packets() const {
  return queued_packets_;
}

// ---------------------------------------------------------------- Factory
std::unique_ptr<InjectNi> make_inject_ni(NiArch arch, Network* net,
                                         NodeId node, const Config& cfg) {
  switch (arch) {
    case NiArch::kBaseline:
      return std::make_unique<BaselineInjectNi>(net, node, cfg.ni_queue_flits);
    case NiArch::kEnhanced:
      return std::make_unique<EnhancedInjectNi>(net, node, cfg.ni_queue_flits);
    case NiArch::kSplitQueue:
      return std::make_unique<SplitQueueInjectNi>(
          net, node, cfg.ni_queue_flits, cfg.split_queues);
    case NiArch::kMultiPort:
      return std::make_unique<MultiPortInjectNi>(net, node,
                                                 cfg.ni_queue_flits);
  }
  return nullptr;
}

// ----------------------------------------------------------------- EjectNi
EjectNi::EjectNi(Network* net, NodeId node, PacketSink* sink,
                 std::uint32_t drain_flits_per_cycle)
    : net_(net), node_(node), sink_(sink), drain_rate_(drain_flits_per_cycle) {}

void EjectNi::cycle(Cycle now) {
  ++steps_;
  Router& r = net_->router(node_);
  for (std::uint32_t k = 0; k < drain_rate_; ++k) {
    if (!sink_->sink_ready()) return;  // Backpressure into the network.
    if (!r.has_ejected_flit()) return;
    const Flit f = r.pop_ejected_flit();
    const Packet& pkt = net_->arena().at(f.pkt);
    Partial& part = partial_[f.pkt];
    ++part.have;
    if (f.corrupted) part.corrupted = true;
    if (part.have == pkt.num_flits) {
      const bool corrupted = part.corrupted;
      partial_.erase(f.pkt);
      if (const obs::PacketSink* sink = net_->sink()) {
        sink->eject(f.pkt, pkt.type, node_, corrupted, now);
      }
      // CRC check + duplicate suppression happen here, at reassembly.
      const RxOutcome outcome = net_->classify_rx(f.pkt, corrupted, now);
      if (outcome == RxOutcome::kDeliver) {
        sink_->deliver(pkt, now);
        net_->finish_packet(f.pkt, now);
      } else {
        net_->drop_packet(f.pkt, now, outcome);
      }
    }
  }
}

}  // namespace arinoc
