// Packet metadata and the arena that owns packets for one network.
//
// Packets are created at injection and retired at ejection; the arena keeps
// retired slots on a free list so long runs do not grow memory. Flits refer
// to packets by id (arena index), never by pointer, so the arena may grow.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "noc/flit.hpp"

namespace arinoc {

/// The four coexisting GPGPU packet types (paper Fig. 5).
enum class PacketType : std::uint8_t {
  kReadRequest,   ///< Short: address only.
  kWriteRequest,  ///< Long: address + data.
  kReadReply,     ///< Long: data.
  kWriteReply,    ///< Short: ack.
};
inline constexpr std::size_t kNumPacketTypes = 4;

inline bool is_long_packet(PacketType t) {
  return t == PacketType::kWriteRequest || t == PacketType::kReadReply;
}
/// Flits of a long (data-bearing) packet: one header flit plus the payload
/// split over links `link_bits` wide.
constexpr std::uint32_t long_packet_flits(std::uint32_t payload_bits,
                                          std::uint32_t link_bits) {
  return 1 + ceil_div(payload_bits, link_bits);
}
inline bool is_reply(PacketType t) {
  return t == PacketType::kReadReply || t == PacketType::kWriteReply;
}
const char* packet_type_name(PacketType t);

struct Packet {
  PacketType type = PacketType::kReadRequest;
  NodeId src = kInvalidNode;
  NodeId dest = kInvalidNode;
  std::uint16_t num_flits = 1;
  /// Multi-level injection priority (paper §5): set to levels-1 at packet
  /// generation, decremented by the route-computation unit at each hop.
  std::uint8_t priority = 0;
  /// Memory transaction this packet carries (request id in the owning
  /// GpgpuSim; opaque to the NoC).
  std::uint64_t txn = 0;

  Cycle created = 0;   ///< Enqueued at the source NI (latency starts here).
  Cycle injected = 0;  ///< First flit entered the router injection port.
  Cycle ejected = 0;   ///< Tail flit delivered at the destination NI.

  /// Retransmission-buffer key (RetransmitTracker); 0 = untracked. Keys are
  /// monotone and never recycled, so stale incarnations cannot collide.
  std::uint64_t rtx = 0;
};

class PacketArena {
 public:
  /// Creates a packet; returns its id. O(1) amortized.
  PacketId create(PacketType type, NodeId src, NodeId dest,
                  std::uint16_t num_flits, std::uint8_t priority,
                  std::uint64_t txn, Cycle now);

  /// Releases a packet slot for reuse. The id must be live.
  void retire(PacketId id);

  Packet& at(PacketId id) { return slots_[id]; }
  const Packet& at(PacketId id) const { return slots_[id]; }

  /// Number of currently live (created, not retired) packets. O(1): kept
  /// as a dedicated counter — this sits on the watchdog observation path.
  std::size_t live() const { return live_count_; }
  std::size_t capacity() const { return slots_.size(); }

  /// True if `id` refers to a live (created, not retired) packet. The
  /// liveness map is byte-per-slot (not vector<bool>): this read sits on
  /// the NI ejection / retransmission hot path where a bit-proxy load
  /// costs a shift+mask per call.
  bool is_live(PacketId id) const {
    return id < live_.size() && live_[id] != 0;
  }

  /// Creation cycle of the oldest live packet, or `fallback` when none are
  /// live (watchdog livelock probe; O(capacity) scan, called rarely).
  Cycle oldest_created(Cycle fallback) const;

  /// Builds the flit sequence of a packet (head .. tail).
  static Flit flit_of(PacketId id, std::uint16_t seq, std::uint16_t num_flits);

 private:
  std::vector<Packet> slots_;
  std::vector<PacketId> free_;
  std::vector<std::uint8_t> live_;
  std::size_t live_count_ = 0;
};

}  // namespace arinoc
