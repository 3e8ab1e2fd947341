// Memory-controller node: L2 bank + FR-FCFS GDDR5 + reply staging.
//
// Receives request packets from the request network (as a PacketSink with
// backpressure), services them through the L2 bank and DRAM, and forwards
// ready reply data to the reply-network NI through a ReplyPort. The cycles
// in which ready data cannot be handed to the NI are the paper's "data
// stall time in memory controllers" (Fig. 12).
#pragma once

#include <deque>
#include <unordered_map>
#include <vector>

#include "common/active_set.hpp"
#include "common/config.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "mem/address_map.hpp"
#include "mem/cache.hpp"
#include "mem/dram.hpp"
#include "mem/txn.hpp"
#include "noc/ni.hpp"

namespace arinoc {

/// Where the MC hands completed reply data (mesh reply NI or DA2mesh lane).
class ReplyPort {
 public:
  virtual ~ReplyPort() = default;
  /// Attempts to move one reply onto the reply fabric. Returns false when
  /// the NI injection queue cannot accept it this cycle.
  virtual bool try_send_reply(PacketType type, TxnId txn, NodeId dest,
                              Cycle now) = 0;
};

class MemController : public PacketSink {
 public:
  MemController(const Config& cfg, NodeId node, TxnPool* txns,
                const AddressMap* amap, ReplyPort* reply);

  // ---- PacketSink (request-network ejection side) ----
  bool sink_ready() const override {
    return request_q_.size() < cfg_.mc_request_queue;
  }
  void deliver(const Packet& pkt, Cycle now) override;

  /// One interconnect cycle (internally ticks DRAM at the memory clock).
  void cycle(Cycle now);

  // ---- Activity-driven stepping ----
  /// Calls to cycle() so far: the ground truth for the self-profiler's
  /// wake totals.
  std::uint64_t steps() const { return steps_; }
  /// True when cycle() would only perform the fixed idle bookkeeping (three
  /// zero occupancy samples + idle DRAM clock ticks): no staged replies, no
  /// queued or pipelined requests, no outstanding DRAM work. The only event
  /// that can end this state is deliver(), which wakes the MC.
  bool can_sleep() const {
    return reply_stage_.empty() && request_q_.empty() && l2_pipe_.empty() &&
           pending_reads_.empty() && dram_.fully_idle();
  }
  /// Replays the bookkeeping of the idle cycles [next expected, now):
  /// zero-valued request-queue samples and idle DRAM clock ticks, exactly as
  /// the skipped cycle() calls would have produced them. Also called by
  /// GpgpuSim::sync_activity() at run/reset boundaries so deferred samples
  /// are attributed to the measurement window they belong to.
  void sync_idle(Cycle now);
  /// Registers this MC in `set` (as member `idx`); deliver() wakes it.
  void set_activity_hook(ActiveSet* set, std::size_t idx) {
    act_set_ = set;
    act_idx_ = idx;
  }

  // ---- Stats ----
  /// Cycles in which ready reply data was blocked at the MC->NI boundary.
  Cycle stall_cycles() const { return stall_cycles_; }
  const Cache& l2() const { return l2_; }
  const GddrDram& dram() const { return dram_; }
  std::size_t reply_backlog() const { return reply_stage_.size(); }
  std::uint64_t requests_served() const { return requests_served_; }
  /// Per-cycle mean request-queue occupancy (the watchdog dump prints it).
  double mean_request_q() const { return req_q_occ_.mean(); }
  void reset_stats();

  NodeId node() const { return node_; }

 private:
  struct StagedReply {
    PacketType type;
    TxnId txn;
  };
  struct L2Op {
    TxnId txn;
    bool write;
    Cycle ready_at;
  };

  void push_reply(PacketType type, TxnId txn);
  void handle_l2_op(const L2Op& op);

  Config cfg_;
  NodeId node_;
  TxnPool* txns_;
  const AddressMap* amap_;
  ReplyPort* reply_;

  std::deque<StagedReply> reply_stage_;
  std::deque<TxnId> request_q_;
  std::deque<L2Op> l2_pipe_;
  Cache l2_;
  GddrDram dram_;
  ClockRatio mem_clock_;
  /// Read-miss merge table: line -> transactions awaiting the DRAM fill.
  std::unordered_map<Addr, std::vector<TxnId>> pending_reads_;

  Cycle stall_cycles_ = 0;
  std::uint64_t requests_served_ = 0;
  Accumulator req_q_occ_;

  // Activity-driven stepping (null hook = always-on mode).
  ActiveSet* act_set_ = nullptr;
  std::size_t act_idx_ = 0;
  Cycle next_cycle_ = 0;  ///< Next cycle this MC expects to process.
  std::uint64_t steps_ = 0;
};

}  // namespace arinoc
