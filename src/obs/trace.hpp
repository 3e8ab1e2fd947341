// Packet-lifecycle tracer (observability subsystem, layer 1).
//
// A PacketTracer is a fixed-capacity ring buffer of small binary events
// covering the whole life of a packet: NI enqueue, VC allocation, router
// injection, per-hop link traversal, ejection/reassembly, delivery or drop,
// and the fault-recovery path (corruption, retransmission). The tracer is fed
// by the NoC's one per-packet event sink (obs/sink.hpp), which it shares
// with the LatencyAttributor; with no observer attached every hook is a
// single branch on a null sink, the simulation state is untouched, and
// results are bit-identical to an untraced run (guarded by tests and a
// bench).
//
// Exporters:
//  * to_chrome_json() — Chrome trace-event JSON ("traceEvents" array),
//    loadable in Perfetto / chrome://tracing. Delivered packets become "X"
//    complete events (pid = network, tid = source node, ts/dur in cycles);
//    hops, corruption, retransmissions and drops become "i" instant events.
//  * tail_text(n) — the last n events as text, appended to watchdog trip
//    dumps so a deadlock diagnosis shows what last moved.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "noc/packet.hpp"

namespace arinoc::obs {

enum class TraceEventKind : std::uint8_t {
  kNiEnqueue,   ///< Packet accepted by the source NI (latency clock starts).
  kVcAlloc,     ///< Head won output-VC allocation at a router (aux = port).
  kInject,      ///< Head flit entered the router injection buffer (aux = vc).
  kLinkHop,     ///< Head flit staged onto a router-to-router link (aux = dir).
  kEject,       ///< Tail flit reassembled at the destination NI.
  kDeliver,     ///< Packet handed to its sink; retired from the arena.
  kDrop,        ///< Packet dropped at reassembly (aux = RxOutcome).
  kRetransmit,  ///< Recovery re-injection of a tracked packet (aux = retry#).
  kCorrupt,     ///< A flit was corrupted crossing a link (aux = dir).
};
inline constexpr std::size_t kNumTraceEventKinds = 9;

const char* trace_event_kind_name(TraceEventKind k);

/// One binary trace record. 24 bytes; everything needed to interpret it
/// without chasing the (recycled) packet arena slot afterwards.
struct TraceEvent {
  Cycle cycle = 0;
  PacketId pkt = kInvalidPacket;
  NodeId node = -1;
  std::int16_t aux = -1;
  TraceEventKind kind = TraceEventKind::kNiEnqueue;
  std::uint8_t type = 0;  ///< PacketType.
  std::uint8_t net = 0;   ///< 0 = request network, 1 = reply network.
};
static_assert(sizeof(TraceEvent) == 24);

class PacketTracer {
 public:
  static constexpr std::size_t kDefaultCapacity = 1u << 16;

  explicit PacketTracer(std::size_t capacity = kDefaultCapacity);

  /// Appends one event; O(1), overwrites the oldest event when full.
  void record(TraceEventKind kind, std::uint8_t net, Cycle cycle,
              PacketId pkt, PacketType type, NodeId node, int aux) {
    TraceEvent& e = ring_[head_];
    e.cycle = cycle;
    e.pkt = pkt;
    e.node = node;
    e.aux = static_cast<std::int16_t>(aux);
    e.kind = kind;
    e.type = static_cast<std::uint8_t>(type);
    e.net = net;
    head_ = head_ + 1 == ring_.size() ? 0 : head_ + 1;
    if (size_ < ring_.size()) {
      ++size_;
    } else {
      ++dropped_;
    }
    ++recorded_;
  }

  /// Buffered events, oldest first.
  std::vector<TraceEvent> events() const;

  std::size_t capacity() const { return ring_.size(); }
  std::size_t size() const { return size_; }
  std::uint64_t recorded() const { return recorded_; }
  /// Events overwritten because the ring was full.
  std::uint64_t dropped() const { return dropped_; }

  void clear();

  /// Chrome trace-event JSON (deterministic for a deterministic run).
  std::string to_chrome_json() const;

  /// The last `n` buffered events as text lines (watchdog trip dumps).
  std::string tail_text(std::size_t n) const;

 private:
  std::vector<TraceEvent> ring_;
  std::size_t head_ = 0;  ///< Next write position.
  std::size_t size_ = 0;
  std::uint64_t recorded_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace arinoc::obs
