// DA2mesh overlay reply fabric (Kim et al., ICCD'12 — paper §7.5(4)).
//
// DA2mesh provides a direct all-to-all overlay from the few MC nodes to the
// many CC nodes using multiple dedicated narrow channels clocked faster.
// We model the reply side of it: each MC owns `lanes` independent serializer
// lanes; a reply packet is assigned to a lane, serialized at the lane rate,
// then flies to its CC after a distance-dependent wire latency. Because the
// overlay is single-hop, in-network contention disappears — but the paper's
// point stands: the *injection* process (feeding the lanes from the MC) is
// untouched by DA2mesh, so ARI composes with it:
//
//  * plain DA2mesh: single NI queue, one flit per cycle to the lane mux
//    (same supply limit as the enhanced baseline);
//  * DA2mesh+ARI:   split queues, each wired to its own lane, supplying up
//    to `lanes` flits per cycle.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "noc/ni.hpp"
#include "noc/noc_stats.hpp"
#include "noc/packet.hpp"
#include "topo/fabric.hpp"

namespace arinoc {

struct OverlayParams {
  std::uint32_t lanes = 4;          ///< Dedicated narrow channels per MC.
  double lane_rate = 1.0;           ///< Flit-equivalents per NoC cycle/lane
                                    ///< (narrow width x higher frequency).
  std::uint32_t base_wire_latency = 3;  ///< Single-hop overlay fly time.
  std::uint32_t queue_flits = 36;
  bool ari = false;                 ///< Split-queue supply (ARI on top).
  std::uint32_t data_payload_bits = 512;
  std::uint32_t link_width_bits = 128;
};

class Da2MeshOverlay {
 public:
  /// One endpoint per MC node of `fabric` (read at construction only).
  Da2MeshOverlay(const OverlayParams& params, const topo::Fabric& fabric);

  /// Registers the packet consumer for a CC node.
  void set_sink(NodeId cc, PacketSink* sink);

  PacketId make_packet(PacketType type, NodeId src, NodeId dest,
                       std::uint64_t txn, Cycle now);

  /// Offers a reply packet at an MC; false when the NI queue is full
  /// (caller accounts the MC stall, as with the mesh fabric).
  bool try_accept(NodeId mc, PacketId id, Cycle now);

  /// Un-creates a packet that was never accepted.
  void abandon_packet(PacketId id) {
    --stats_.packets_injected;
    arena_.retire(id);
  }

  void step(Cycle now);

  NocStats& stats() { return stats_; }
  const NocStats& stats() const { return stats_; }
  std::size_t occupancy_flits(NodeId mc) const;

 private:
  struct Lane {
    PacketId busy_pkt = kInvalidPacket;
    std::uint32_t flits_left = 0;
    double rate_accum = 0.0;
  };
  struct InFlight {
    PacketId pkt;
    Cycle arrive;
  };
  struct NiQueue {
    std::deque<PacketId> pkts;
    std::size_t flits = 0;
    std::size_t capacity_flits = 0;
  };
  struct McEndpoint {
    // Queues: 1 (plain) or `lanes` (ARI split supply). In plain mode only
    // lane 0 is usable — the single NI read port feeds one lane at a time,
    // which is exactly the supply limit ARI removes.
    std::vector<NiQueue> queues;
    std::vector<Lane> lanes;
    std::size_t accept_rr = 0;
  };

  std::uint16_t flits_for(PacketType type) const;
  McEndpoint& endpoint(NodeId mc);

  OverlayParams params_;
  PacketArena arena_;
  std::vector<int> mc_index_;  ///< node -> endpoint index or -1.
  std::vector<McEndpoint> endpoints_;
  std::vector<PacketSink*> sinks_;  ///< Indexed by node id.
  std::vector<InFlight> in_flight_;
  NocStats stats_;
};

}  // namespace arinoc
