// One per-packet event sink (observability subsystem).
//
// Every NoC hook point (NI, router, network, retransmit tracker) makes one
// call on a nullable `const PacketSink*`; the sink forwards the event to
// whichever observers are attached — the PacketTracer records it, the
// LatencyAttributor advances the packet's stage clock. With no observer the
// owning Network hands out a null sink, so each hook is one branch on a null
// pointer and results are bit-identical to an unobserved run.
//
// Included only by .cpp files; headers forward-declare obs::PacketSink.
#pragma once

#include <cstdint>

#include "obs/attr.hpp"
#include "obs/trace.hpp"

namespace arinoc::obs {

struct PacketSink {
  PacketTracer* tracer = nullptr;
  LatencyAttributor* attr = nullptr;
  std::uint8_t net = 0;  ///< 0 = request network, 1 = reply network.

  /// Source NI accepted the packet (latency clock starts).
  void ni_enqueue(PacketId id, PacketType type, NodeId node, Cycle now) const {
    if (tracer) {
      tracer->record(TraceEventKind::kNiEnqueue, net, now, id, type, node, -1);
    }
    if (attr) attr->on_ni_enqueue(net, id, type, node, now);
  }
  /// Recovery re-injection `id` of a packet first accepted at
  /// `first_accept`; fires right after the re-injection's ni_enqueue.
  void retransmit(PacketId id, PacketType type, NodeId src, int retry,
                  Cycle first_accept, Cycle now) const {
    if (tracer) {
      tracer->record(TraceEventKind::kRetransmit, net, now, id, type, src,
                     retry);
    }
    if (attr) attr->on_retransmit(net, id, first_accept, now);
  }
  /// Head flit entered injection VC `vc` of router `node`.
  void inject(PacketId id, PacketType type, NodeId node, int vc,
              Cycle now) const {
    if (tracer) {
      tracer->record(TraceEventKind::kInject, net, now, id, type, node, vc);
    }
    if (attr) attr->on_inject(net, id, node, now);
  }
  /// Head won output VC `vc` of output `port` at router `node`.
  void vc_alloc(PacketId id, PacketType type, NodeId node, int port, int vc,
                Cycle now) const {
    if (tracer) {
      tracer->record(TraceEventKind::kVcAlloc, net, now, id, type, node, port);
    }
    if (attr) attr->on_vc_alloc(net, id, node, port, vc, now);
  }
  /// A flit left router `node` on link `dir`; `corrupted` means the link
  /// corrupted it on this traversal.
  void link_depart(PacketId id, PacketType type, NodeId node, int dir,
                   bool head, bool corrupted, Cycle now) const {
    if (tracer) {
      if (corrupted) {
        tracer->record(TraceEventKind::kCorrupt, net, now, id, type, node,
                       dir);
      }
      if (head) {
        tracer->record(TraceEventKind::kLinkHop, net, now, id, type, node,
                       dir);
      }
    }
    if (attr && head) attr->on_link_depart(net, id, node, dir, now);
  }
  /// Head flit reached router `node` over a link.
  void head_arrive(PacketId id, NodeId node, Cycle now) const {
    if (attr) attr->on_head_arrive(net, id, node, now);
  }
  /// Head flit entered the ejection buffer of router `node`.
  void eject_start(PacketId id, NodeId node, Cycle now) const {
    if (attr) attr->on_eject_start(net, id, node, now);
  }
  /// Tail flit reassembled at the destination NI `node`.
  void eject(PacketId id, PacketType type, NodeId node, bool corrupted,
             Cycle now) const {
    if (tracer) {
      tracer->record(TraceEventKind::kEject, net, now, id, type, node,
                     corrupted ? 1 : 0);
    }
  }
  /// Packet handed to its sink at `dest`; retired from the arena next.
  void deliver(PacketId id, PacketType type, NodeId dest, Cycle now) const {
    if (tracer) {
      tracer->record(TraceEventKind::kDeliver, net, now, id, type, dest, -1);
    }
    if (attr) attr->on_deliver(net, id, now);
  }
  /// Packet dropped at reassembly; `outcome` is the RxOutcome.
  void drop(PacketId id, PacketType type, NodeId dest, int outcome,
            Cycle now) const {
    if (tracer) {
      tracer->record(TraceEventKind::kDrop, net, now, id, type, dest,
                     outcome);
    }
    if (attr) attr->on_drop(net, id, now);
  }
};

}  // namespace arinoc::obs
