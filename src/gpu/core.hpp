// SIMT core (compute-cluster node): warps, GTO scheduling, L1 + MSHR, and
// the request/reply plumbing into the two networks. The core is the demand
// side of the latency-hiding loop the NoC experiments depend on: warps stall
// on outstanding loads, so late replies translate directly into lost IPC.
#pragma once

#include <deque>
#include <vector>

#include "common/active_set.hpp"
#include "common/config.hpp"
#include "common/types.hpp"
#include "gpu/instr.hpp"
#include "gpu/scheduler.hpp"
#include "gpu/warp.hpp"
#include "mem/address_map.hpp"
#include "mem/cache.hpp"
#include "mem/mshr.hpp"
#include "mem/txn.hpp"
#include "noc/ni.hpp"

namespace arinoc {

/// Where the core hands memory requests (the request-network NI).
class RequestPort {
 public:
  virtual ~RequestPort() = default;
  virtual bool try_send_request(bool write, TxnId txn, NodeId dest_mc,
                                Cycle now) = 0;
};

class SimtCore : public PacketSink {
 public:
  /// `mc_nodes` maps MC index (from AddressMap::mc_of) to its mesh node.
  SimtCore(const Config& cfg, std::uint32_t core_id, NodeId node,
           InstrSource* source, TxnPool* txns, const AddressMap* amap,
           const std::vector<NodeId>* mc_nodes, RequestPort* request_port);

  /// One interconnect cycle: issue, access L1, emit requests.
  void cycle(Cycle now);

  // ---- PacketSink (reply-network ejection side) ----
  void deliver(const Packet& pkt, Cycle now) override;

  // ---- Activity-driven stepping ----
  /// True after a cycle in which no warp could issue and no request was
  /// queued: until a reply arrives (deliver(), which wakes the core), every
  /// further cycle would only increment the issue-stall counter — which
  /// sync_idle replays on wake. Any other outcome (issued, SIMD front-end
  /// draining, requests pending at the NI) keeps the core stepping, since
  /// NI backpressure can clear without any callback to the core.
  bool can_sleep() const { return can_sleep_; }
  /// Books the slept cycles [next expected, now) as issue stalls — by the
  /// can_sleep() invariant they all were. Called from cycle() on wake and
  /// by GpgpuSim::sync_activity() at run/reset boundaries.
  void sync_idle(Cycle now) {
    if (now <= next_cycle_) return;
    issue_stalls_ += now - next_cycle_;
    next_cycle_ = now;
  }
  /// Calls to cycle() so far: the ground truth for the self-profiler's
  /// wake totals.
  std::uint64_t steps() const { return steps_; }
  /// Registers this core in `set` (as member `idx`); deliver() wakes it.
  void set_activity_hook(ActiveSet* set, std::size_t idx) {
    act_set_ = set;
    act_idx_ = idx;
  }

  // ---- Stats ----
  std::uint64_t warp_instructions() const { return instructions_; }
  /// Scalar-thread instructions (warp instructions x warp size).
  std::uint64_t thread_instructions() const {
    return instructions_ * cfg_.warp_size;
  }
  const Cache& l1() const { return l1_; }
  std::uint64_t requests_sent() const { return requests_sent_; }
  std::uint64_t issue_stall_cycles() const { return issue_stalls_; }
  void reset_stats();

  NodeId node() const { return node_; }
  std::uint32_t core_id() const { return core_id_; }

 private:
  struct OutRequest {
    TxnId txn;
    bool write;
    NodeId dest;
  };

  bool execute_mem(Warp& warp, Cycle now);
  void drain_requests(Cycle now);

  Config cfg_;
  std::uint32_t core_id_;
  NodeId node_;
  InstrSource* source_;
  TxnPool* txns_;
  const AddressMap* amap_;
  const std::vector<NodeId>* mc_nodes_;
  RequestPort* request_port_;

  std::vector<Warp> warps_;
  WarpScheduler scheduler_;
  Cache l1_;
  Mshr mshr_;
  std::deque<OutRequest> out_q_;
  /// Issue slot busy until (warp occupies the SIMD pipeline front-end for
  /// warp_size / simd_width cycles).
  Cycle issue_free_at_ = 0;

  std::uint64_t instructions_ = 0;
  std::uint64_t requests_sent_ = 0;
  std::uint64_t issue_stalls_ = 0;

  // Activity-driven stepping (null hook = always-on mode).
  ActiveSet* act_set_ = nullptr;
  std::size_t act_idx_ = 0;
  Cycle next_cycle_ = 0;  ///< Next cycle this core expects to process.
  std::uint64_t steps_ = 0;
  bool can_sleep_ = false;
};

}  // namespace arinoc
