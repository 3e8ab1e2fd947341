#include "noc/overlay.hpp"

#include <algorithm>
#include <cassert>

namespace arinoc {

Da2MeshOverlay::Da2MeshOverlay(const OverlayParams& params,
                               const topo::Fabric& fabric)
    : params_(params),
      mc_index_(static_cast<std::size_t>(fabric.nodes()), -1),
      sinks_(static_cast<std::size_t>(fabric.nodes()), nullptr) {
  const auto& mcs = fabric.mc_nodes();
  endpoints_.reserve(mcs.size());
  for (std::size_t i = 0; i < mcs.size(); ++i) {
    mc_index_[static_cast<std::size_t>(mcs[i])] = static_cast<int>(i);
    endpoints_.push_back(
        {NiQueues(params.queue_flits, params.ari ? params.lanes : 1,
                  flits_for(PacketType::kReadReply)),
         std::vector<Lane>(params.lanes)});
  }
}

std::uint16_t Da2MeshOverlay::flits_for(PacketType type) const {
  if (!is_long_packet(type)) return 1;
  return static_cast<std::uint16_t>(
      long_packet_flits(params_.data_payload_bits, params_.link_width_bits));
}

Da2MeshOverlay::McEndpoint& Da2MeshOverlay::endpoint(NodeId mc) {
  const int idx = mc_index_[static_cast<std::size_t>(mc)];
  assert(idx >= 0 && "node is not an MC");
  return endpoints_[static_cast<std::size_t>(idx)];
}

void Da2MeshOverlay::set_sink(NodeId cc, PacketSink* sink) {
  sinks_[static_cast<std::size_t>(cc)] = sink;
}

PacketId Da2MeshOverlay::make_packet(PacketType type, NodeId src, NodeId dest,
                                     std::uint64_t txn, Cycle now) {
  ++stats_.packets_injected;
  return arena_.create(type, src, dest, flits_for(type), 0, txn, now);
}

bool Da2MeshOverlay::try_accept(NodeId mc, PacketId id, Cycle now) {
  NiQueues& queues = endpoint(mc).queues;
  Packet& pkt = arena_.at(id);
  const int qi = queues.find_room(pkt.num_flits);
  if (qi < 0) return false;
  queues.push(static_cast<std::size_t>(qi), id, pkt.num_flits);
  pkt.created = now;
  return true;
}

void Da2MeshOverlay::step(Cycle now) {
  // Deliver packets whose overlay flight completed.
  for (std::size_t i = 0; i < in_flight_.size();) {
    if (in_flight_[i].arrive <= now) {
      const PacketId id = in_flight_[i].pkt;
      Packet& pkt = arena_.at(id);
      pkt.ejected = now;
      if (PacketSink* sink = sinks_[static_cast<std::size_t>(pkt.dest)]) {
        sink->deliver(pkt, now);
      }
      stats_.record_delivery(pkt, now);
      arena_.retire(id);
      in_flight_[i] = in_flight_.back();
      in_flight_.pop_back();
    } else {
      ++i;
    }
  }

  for (McEndpoint& ep : endpoints_) {
    // Plain DA2mesh: only lane 0 can be fed (single narrow NI read port);
    // ARI: queue i feeds lane i, all lanes concurrently.
    const std::size_t active_lanes = params_.ari ? ep.lanes.size() : 1;
    for (std::size_t li = 0; li < active_lanes; ++li) {
      Lane& lane = ep.lanes[li];
      const std::size_t qi = params_.ari ? li : 0;
      if (lane.busy_pkt == kInvalidPacket && !ep.queues[qi].empty()) {
        // The lane takes the whole head packet off the queue at once.
        lane.busy_pkt = ep.queues[qi].front().pkt;
        Packet& pkt = arena_.at(lane.busy_pkt);
        pkt.injected = now;
        for (std::uint16_t s = 0; s < pkt.num_flits; ++s) ep.queues.pop(qi);
        lane.flits_left = pkt.num_flits;
        lane.rate_accum = 0.0;
      }
      if (lane.busy_pkt == kInvalidPacket) continue;
      // Serialize at the lane rate; the plain-mode lane is additionally
      // capped at 1 flit/cycle by the NI read port.
      const double rate =
          params_.ari ? params_.lane_rate : std::min(params_.lane_rate, 1.0);
      lane.rate_accum += rate;
      while (lane.rate_accum >= 1.0 && lane.flits_left > 0) {
        lane.rate_accum -= 1.0;
        --lane.flits_left;
      }
      if (lane.flits_left == 0) {
        in_flight_.push_back(
            {lane.busy_pkt, now + params_.base_wire_latency});
        lane.busy_pkt = kInvalidPacket;
      }
    }
  }
}

std::size_t Da2MeshOverlay::occupancy_flits(NodeId mc) const {
  const int idx = mc_index_[static_cast<std::size_t>(mc)];
  assert(idx >= 0);
  return endpoints_[static_cast<std::size_t>(idx)].queues.flits();
}

}  // namespace arinoc
