// Network interfaces (paper Fig. 7).
//
// Injection side — one InjectNi for all four architectures. Its buffer is a
// set of 1..k packet queues (NiQueues), and each queue streams its head
// packet into the router over its own narrow link, one flit per cycle. Two
// properties follow from the NiArch:
//  * kBaseline:   the node->NI link is narrow too, so a packet spends
//                 num_flits cycles entering the NI queue (GPGPU-Sim
//                 default).
//  * kSplitQueue: ARI supply (§4.1, Fig. 7b): the buffer is split into k
//                 queues of at least one long packet each, and queue i may
//                 only enter VC i: up to k flits enter the router per cycle.
// Every other NI keeps one queue behind a wide node->NI link and streams
// its head packet into the first ready VC, trying the router's injection
// ports round-robin. On a router with one injection port that is the
// paper's enhanced baseline (kEnhanced, Fig. 7a); with several it is the
// MultiPort comparator [3], whose single queue still supplies at most one
// flit per cycle.
//
// Ejection side — EjectNi drains the router ejection buffer at the narrow
// link rate, reassembles packets (flits of different packets may interleave
// across ejection VCs) and delivers them to a PacketSink, with optional
// backpressure when the sink is not ready.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/active_set.hpp"
#include "common/config.hpp"
#include "common/types.hpp"
#include "noc/buffer.hpp"
#include "noc/network.hpp"
#include "noc/packet.hpp"
#include "noc/router.hpp"

namespace arinoc {

/// Consumes packets delivered by an EjectNi.
class PacketSink {
 public:
  virtual ~PacketSink() = default;
  /// May the NI deliver a packet this cycle? Returning false backpressures
  /// the ejection buffer (and eventually the network).
  virtual bool sink_ready() const { return true; }
  /// Full packet delivered; `pkt` is still live in the arena during the call.
  virtual void deliver(const Packet& pkt, Cycle now) = 0;
};

/// An NI buffer: `k` FIFO queues of whole packets sharing one flit budget.
/// Each queue holds total/k flits, but at least one long packet (§4.1);
/// k = 1 is the single queue of the baseline NIs. The DA2mesh overlay's MC
/// endpoints use the same buffer.
class NiQueues {
 public:
  NiQueues(std::uint32_t total_flits, std::uint32_t num_queues,
           std::uint32_t long_flits);

  /// The queue a packet of `flits` flits would enter: the first with room
  /// for the whole packet, round-robin from the one after the queue filled
  /// last (the Fig. 7b multiplexer); -1 when none has room.
  int find_room(std::uint32_t flits) const {
    std::size_t qi = next_;
    for (std::size_t k = 0; k < queues_.size(); ++k) {
      if (queues_[qi].fits(flits)) return static_cast<int>(qi);
      if (++qi == queues_.size()) qi = 0;
    }
    return -1;
  }
  /// Appends packet `id` to queue `qi`, which must have room for it.
  void push(std::size_t qi, PacketId id, std::uint16_t flits) {
    for (std::uint16_t s = 0; s < flits; ++s) {
      queues_[qi].push(PacketArena::flit_of(id, s, flits));
    }
    next_ = qi + 1 == queues_.size() ? 0 : qi + 1;
    flits_ += flits;
    ++packets_;
  }
  /// Removes and returns the head flit of queue `qi`.
  Flit pop(std::size_t qi) {
    const Flit f = queues_[qi].pop();
    --flits_;
    if (f.tail) --packets_;
    return f;
  }

  std::size_t size() const { return queues_.size(); }
  const FlitBuffer& operator[](std::size_t qi) const { return queues_[qi]; }
  /// Flits queued over all queues.
  std::size_t flits() const { return flits_; }
  /// Whole packets queued over all queues; a packet leaves with its tail.
  std::size_t packets() const { return packets_; }

 private:
  std::vector<FlitBuffer> queues_;
  std::size_t next_ = 0;
  std::size_t flits_ = 0;
  std::size_t packets_ = 0;
};

/// The injection-side NI (see the header comment for the architectures).
class InjectNi {
 public:
  /// `queue_flits` is the NI buffer budget; kSplitQueue splits it over
  /// `split_queues` queues, every other architecture keeps one queue.
  InjectNi(NiArch arch, Network* net, NodeId node, std::uint32_t queue_flits,
           std::uint32_t split_queues = 1);

  /// True when try_accept would take a packet of `flits` flits now: the
  /// node->NI link is free and some queue has room for it. Lets a sender
  /// skip creating a packet it would only abandon.
  bool can_accept(std::uint32_t flits) const {
    return incoming_ == kInvalidPacket && queues_.find_room(flits) >= 0;
  }
  /// Offers a packet for injection. On success the NI owns the packet and
  /// stamps pkt.created = now (latency measurement starts at the NI queue,
  /// matching §7.4). Returns false when the NI cannot accept this cycle —
  /// the caller keeps the data and accounts the stall (Fig. 12).
  bool try_accept(PacketId id, Cycle now);

  /// Moves flits from the NI queue(s) into the router injection VC buffers.
  void cycle(Cycle now);
  /// Calls to cycle() so far: the ground truth for the self-profiler's
  /// wake totals.
  std::uint64_t steps() const { return steps_; }

  /// Total flits currently queued in the NI.
  std::size_t occupancy_flits() const { return queues_.flits(); }
  /// Queued complete packets (Fig. 6 reports packets).
  std::size_t occupancy_packets() const { return queues_.packets(); }

  /// True when cycle() would be a strict no-op: nothing queued and nothing
  /// mid-transfer on the node->NI link. Every accepted packet (first
  /// transmission or retransmission) goes through finish_accept, which
  /// wakes the NI, so an idle NI may sleep without a catch-up step.
  bool idle() const {
    return queues_.flits() == 0 && incoming_ == kInvalidPacket;
  }
  /// True when cycle() stays a strict no-op until a wake edge: the NI is
  /// idle, or its last cycle() moved no flit with nothing on the node->NI
  /// link. A blocked NI only waits for its router to move a flit out of an
  /// injection VC (lock_head and the free-slot check read nothing else), and
  /// it asked the router to wake it then.
  bool can_sleep() const { return idle() || blocked_; }

  /// Registers this NI in `set` (as member `idx`) on every accept, and with
  /// its router for the injection-slot wake.
  void set_activity_hook(ActiveSet* set, std::size_t idx) {
    act_set_ = set;
    act_idx_ = idx;
    net_->router(node_).set_injection_hook(set, idx);
  }

  /// Per-cycle occupancy sampling for Fig. 6.
  void sample() {
    ++samples_;
    occupancy_sum_ += static_cast<double>(occupancy_packets());
  }
  double mean_occupancy_packets() const {
    return samples_ ? occupancy_sum_ / static_cast<double>(samples_) : 0.0;
  }
  void reset_stats() {
    samples_ = 0;
    occupancy_sum_ = 0.0;
  }

  NodeId node() const { return node_; }
  NiArch arch() const { return arch_; }
  std::uint32_t num_queues() const {
    return static_cast<std::uint32_t>(queues_.size());
  }

 private:
  /// Accept bookkeeping: stamps pkt.created and registers the packet with
  /// the retransmission tracker when the network has one.
  void finish_accept(PacketId id, Cycle now);
  /// Picks the injection VC (and port) for the head packet of queue `qi`;
  /// false when none is ready this cycle.
  bool lock_head(Router& r, std::size_t qi);

  NiArch arch_;
  Network* net_;
  NodeId node_;
  NiQueues queues_;
  /// Per queue: the VC its head packet streams into, or -1.
  std::vector<int> locked_vc_;
  /// Injection port the queues stream into; the single queue moves on to
  /// `next_port_` for its next packet.
  std::uint32_t port_ = 0;
  std::uint32_t next_port_ = 0;
  /// kBaseline: the packet serializing over the narrow node->NI link.
  PacketId incoming_ = kInvalidPacket;
  std::uint32_t incoming_remaining_ = 0;
  /// The last cycle() moved no flit and left nothing on the node->NI link.
  bool blocked_ = false;
  std::uint64_t steps_ = 0;
  std::uint64_t samples_ = 0;
  double occupancy_sum_ = 0.0;
  ActiveSet* act_set_ = nullptr;
  std::size_t act_idx_ = 0;
};

/// Builds the injection NI a node gets under `cfg` for architecture `arch`.
std::unique_ptr<InjectNi> make_inject_ni(NiArch arch, Network* net,
                                         NodeId node, const Config& cfg);

/// Ejection-side NI with count-based packet reassembly.
class EjectNi {
 public:
  EjectNi(Network* net, NodeId node, PacketSink* sink,
          std::uint32_t drain_flits_per_cycle = 1);

  void cycle(Cycle now);
  std::size_t pending_packets() const { return partial_.size(); }
  /// Calls to cycle() so far: the ground truth for the self-profiler's
  /// wake totals.
  std::uint64_t steps() const { return steps_; }

 private:
  /// Reassembly state of one packet: flit count plus the sticky CRC verdict
  /// (any corrupted flit taints the whole packet).
  struct Partial {
    PacketId pkt;
    std::uint16_t have;
    bool corrupted;
  };

  Network* net_;
  NodeId node_;
  PacketSink* sink_;
  std::uint32_t drain_rate_;
  /// Packets mid-reassembly, unordered. Only packets interleaved across
  /// the ejection VCs are open at once, so a linear search beats hashing.
  std::vector<Partial> partial_;
  std::uint64_t steps_ = 0;
};

}  // namespace arinoc
