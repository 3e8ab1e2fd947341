#include "noc/ni.hpp"

#include <algorithm>
#include <cassert>

#include "obs/sink.hpp"

namespace arinoc {

// ---------------------------------------------------------------- NiQueues
NiQueues::NiQueues(std::uint32_t total_flits, std::uint32_t num_queues,
                   std::uint32_t long_flits)
    // Same total buffer budget however it is split (§6.2 fairness note);
    // every queue must hold at least one long packet (§4.1).
    : queues_(num_queues,
              FlitBuffer(std::max(total_flits / num_queues, long_flits))) {}

// ---------------------------------------------------------------- InjectNi
InjectNi::InjectNi(NiArch arch, Network* net, NodeId node,
                   std::uint32_t queue_flits, std::uint32_t split_queues)
    : arch_(arch),
      net_(net),
      node_(node),
      queues_(queue_flits, arch == NiArch::kSplitQueue ? split_queues : 1,
              net->flits_for(PacketType::kReadReply)),
      locked_vc_(queues_.size(), -1) {}

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

bool InjectNi::try_accept(PacketId id, Cycle now) {
  if (incoming_ != kInvalidPacket) return false;  // Narrow link busy.
  const std::uint16_t flits = net_->arena().at(id).num_flits;
  const int qi = queues_.find_room(flits);
  if (qi < 0) return false;
  if (arch_ == NiArch::kBaseline) {
    // Narrow node->NI link: one cycle per flit before the packet is queued.
    incoming_ = id;
    incoming_remaining_ = flits;
  } else {
    // Wide W-bit links (Fig. 7a): the whole packet is queued at once.
    queues_.push(static_cast<std::size_t>(qi), id, flits);
  }
  finish_accept(id, now);
  return true;
}

inline bool InjectNi::lock_head(Router& r, std::size_t qi) {
  const Flit& head = queues_[qi].front();
  assert(head.head);
  const std::uint32_t flits = net_->arena().at(head.pkt).num_flits;
  if (arch_ == NiArch::kSplitQueue) {
    // Queue i is hard-wired to VC i (Fig. 7b).
    const auto vc = static_cast<std::uint32_t>(qi);
    if (!r.injection_vc_ready(0, vc, flits)) return false;
    locked_vc_[qi] = static_cast<int>(vc);
    return true;
  }
  // The single queue takes the first ready VC, trying the injection ports
  // round-robin from the one after the port its last packet used.
  const std::uint32_t ports = r.num_injection_ports();
  std::uint32_t p = next_port_;
  for (std::uint32_t k = 0; k < ports; ++k) {
    for (std::uint32_t vc = 0; vc < r.num_vcs(); ++vc) {
      if (!r.injection_vc_ready(p, vc, flits)) continue;
      port_ = p;
      next_port_ = p + 1 == ports ? 0 : p + 1;
      locked_vc_[qi] = static_cast<int>(vc);
      return true;
    }
    if (++p == ports) p = 0;
  }
  return false;
}

void InjectNi::cycle(Cycle now) {
  ++steps_;
  blocked_ = false;
  if (incoming_ != kInvalidPacket && --incoming_remaining_ == 0) {
    queues_.push(0, incoming_, net_->arena().at(incoming_).num_flits);
    incoming_ = kInvalidPacket;
  }
  if (queues_.flits() == 0) return;
  Router& r = net_->router(node_);
  // Each queue drives its own narrow link: at most one flit per queue.
  bool moved = false;
  for (std::size_t qi = 0; qi < queues_.size(); ++qi) {
    if (queues_[qi].empty()) continue;
    if (locked_vc_[qi] < 0 && !lock_head(r, qi)) continue;
    const auto vc = static_cast<std::uint32_t>(locked_vc_[qi]);
    if (r.injection_free(port_, vc) == 0) continue;
    const Flit f = queues_.pop(qi);
    r.inject_flit(port_, vc, f, now);
    if (f.tail) locked_vc_[qi] = -1;
    moved = true;
  }
  if (!moved && incoming_ == kInvalidPacket) {
    // Every queued head waits for an injection VC slot: sleep until the
    // router frees one (or an accept wakes the NI).
    blocked_ = true;
    r.wait_for_injection();
  }
}

std::unique_ptr<InjectNi> make_inject_ni(NiArch arch, Network* net,
                                         NodeId node, const Config& cfg) {
  return std::make_unique<InjectNi>(arch, net, node, cfg.ni_queue_flits,
                                    cfg.split_queues);
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
    auto part = std::find_if(partial_.begin(), partial_.end(),
                             [&](const Partial& p) { return p.pkt == f.pkt; });
    if (part == partial_.end()) {
      partial_.push_back({f.pkt, 0, false});
      part = partial_.end() - 1;
    }
    ++part->have;
    if (f.corrupted) part->corrupted = true;
    if (part->have == pkt.num_flits) {
      const bool corrupted = part->corrupted;
      *part = partial_.back();
      partial_.pop_back();
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
