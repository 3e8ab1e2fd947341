// Network interfaces (paper Fig. 7).
//
// Injection side — four architectures:
//  * BaselineInjectNi:   narrow MC->NI link; moving a long packet into the
//                        NI queue takes num_flits cycles (GPGPU-Sim default).
//  * EnhancedInjectNi:   wide MC->NI and NI->queue links; a whole packet
//                        enters the single queue in one cycle, but the AB
//                        link to the router is narrow (1 flit/cycle). This
//                        is the paper's "enhanced baseline" (§4.1, Fig.7a).
//  * SplitQueueInjectNi: ARI supply (§4.1, Fig.7b): the queue is split into
//                        k one-packet-or-larger queues, each hard-wired by a
//                        narrow link to one VC of the router injection port;
//                        up to k flits enter the router per cycle.
//  * MultiPortInjectNi:  the [3] comparator: the router has multiple
//                        injection input ports (better consumption), but the
//                        single NI queue still supplies at most 1 flit/cycle.
//
// Ejection side — EjectNi drains the router ejection buffer at the narrow
// link rate, reassembles packets (flits of different packets may interleave
// across ejection VCs) and delivers them to a PacketSink, with optional
// backpressure when the sink is not ready.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
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

/// Common interface of all injection-side NIs.
class InjectNi {
 public:
  InjectNi(Network* net, NodeId node);
  virtual ~InjectNi() = default;

  /// Offers a packet for injection. On success the NI owns the packet and
  /// stamps pkt.created = now (latency measurement starts at the NI queue,
  /// matching §7.4). Returns false when the NI cannot accept this cycle —
  /// the caller keeps the data and accounts the stall (Fig. 12).
  virtual bool try_accept(PacketId id, Cycle now) = 0;

  /// Moves flits from NI queue(s) into the router injection VC buffers.
  void cycle(Cycle now) {
    ++steps_;
    transfer(now);
  }
  /// Calls to cycle() so far: the ground truth for the self-profiler's
  /// wake totals.
  std::uint64_t steps() const { return steps_; }

  /// Total flits currently queued in the NI.
  virtual std::size_t occupancy_flits() const = 0;
  /// Queued complete packets (Fig. 6 reports packets).
  virtual std::size_t occupancy_packets() const = 0;

  /// True when cycle() would be a strict no-op: nothing queued and nothing
  /// mid-transfer on the node->NI link. Every accepted packet (first
  /// transmission or retransmission) goes through finish_accept, which
  /// wakes the NI, so an idle NI may sleep without a catch-up step.
  virtual bool idle() const { return occupancy_flits() == 0; }

  /// Registers this NI in `set` (as member `idx`) on every accept.
  void set_activity_hook(ActiveSet* set, std::size_t idx) {
    act_set_ = set;
    act_idx_ = idx;
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

 protected:
  Router& router() { return net_->router(node_); }
  /// Accept bookkeeping shared by every NI flavour: stamps pkt.created and
  /// registers the packet with the retransmission tracker when the network
  /// has one. Call from try_accept exactly when returning true.
  void finish_accept(PacketId id, Cycle now);
  /// One cycle of the NI flavour's queue-to-router transfer.
  virtual void transfer(Cycle now) = 0;
  Network* net_;
  NodeId node_;

 private:
  std::uint64_t steps_ = 0;
  std::uint64_t samples_ = 0;
  double occupancy_sum_ = 0.0;
  ActiveSet* act_set_ = nullptr;
  std::size_t act_idx_ = 0;
};

/// Single queue; narrow link from the node into the NI (serialization delay)
/// and narrow link into the router.
class BaselineInjectNi : public InjectNi {
 public:
  BaselineInjectNi(Network* net, NodeId node, std::uint32_t queue_flits);
  bool try_accept(PacketId id, Cycle now) override;
  void transfer(Cycle now) override;
  std::size_t occupancy_flits() const override;
  std::size_t occupancy_packets() const override;
  /// A packet serializing over the narrow node->NI link keeps the NI busy
  /// even while the queue itself is still empty.
  bool idle() const override {
    return occupancy_flits() == 0 && incoming_ == kInvalidPacket;
  }

 private:
  void drain_to_router(Cycle now);
  FlitBuffer queue_;
  std::size_t queued_packets_ = 0;
  // Narrow node->NI link: the packet being serialized in.
  PacketId incoming_ = kInvalidPacket;
  std::uint32_t incoming_remaining_ = 0;
  // Streaming state of the head packet toward the router.
  int locked_vc_ = -1;
};

/// Wide node->NI link, single queue, narrow NI->router link (Fig. 7a).
class EnhancedInjectNi : public InjectNi {
 public:
  EnhancedInjectNi(Network* net, NodeId node, std::uint32_t queue_flits);
  bool try_accept(PacketId id, Cycle now) override;
  void transfer(Cycle now) override;
  std::size_t occupancy_flits() const override;
  std::size_t occupancy_packets() const override;

 private:
  FlitBuffer queue_;
  std::size_t queued_packets_ = 0;
  int locked_vc_ = -1;
};

/// ARI split queues (Fig. 7b): queue i feeds VC i over its own narrow link.
class SplitQueueInjectNi : public InjectNi {
 public:
  SplitQueueInjectNi(Network* net, NodeId node, std::uint32_t total_flits,
                     std::uint32_t num_queues);
  bool try_accept(PacketId id, Cycle now) override;
  void transfer(Cycle now) override;
  std::size_t occupancy_flits() const override;
  std::size_t occupancy_packets() const override;
  std::uint32_t num_queues() const {
    return static_cast<std::uint32_t>(queues_.size());
  }

 private:
  struct SplitQueue {
    FlitBuffer buf;
    std::size_t packets = 0;
    bool locked = false;  ///< Streaming head packet into its VC.
  };
  std::vector<SplitQueue> queues_;
  std::size_t accept_rr_ = 0;
};

/// [3]: single queue, 1 flit/cycle supply, alternating over the router's
/// multiple injection input ports.
class MultiPortInjectNi : public InjectNi {
 public:
  MultiPortInjectNi(Network* net, NodeId node, std::uint32_t queue_flits);
  bool try_accept(PacketId id, Cycle now) override;
  void transfer(Cycle now) override;
  std::size_t occupancy_flits() const override;
  std::size_t occupancy_packets() const override;

 private:
  FlitBuffer queue_;
  std::size_t queued_packets_ = 0;
  std::uint32_t current_port_ = 0;
  int locked_vc_ = -1;
  bool streaming_ = false;
};

/// Builds the right injection NI for a node given the configuration.
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
  /// Reassembly state: flit count plus the sticky CRC verdict (any corrupted
  /// flit taints the whole packet).
  struct Partial {
    std::uint16_t have = 0;
    bool corrupted = false;
  };

  Network* net_;
  NodeId node_;
  PacketSink* sink_;
  std::uint32_t drain_rate_;
  std::unordered_map<PacketId, Partial> partial_;
  std::uint64_t steps_ = 0;
};

}  // namespace arinoc
