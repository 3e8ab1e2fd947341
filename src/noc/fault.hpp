// Fault injection and end-to-end recovery for one network.
//
// FaultInjector is a deterministic, seed-driven fault campaign engine. It
// owns its own RNG stream (independent of the traffic RNG) and draws every
// fault event in the *time/space* domain — per cycle, per link, in a fixed
// link order — so the fault schedule is a pure function of (fault seed,
// fabric, rates) and does not shift when the workload or traffic seed
// changes.
// Four fault classes are modelled:
//
//  * transient flit corruption: a link flips payload bits for one cycle;
//    the flit crossing it fails its CRC at the ejection NI;
//  * link stall: a link goes dead for a window of cycles (the upstream
//    router output is blocked; flits wait, nothing is lost);
//  * input-port failure: a link goes dead permanently (modelled as the
//    upstream output feeding that input staying blocked forever);
//  * single-credit loss: one in-flight credit is dropped, permanently
//    shrinking the usable depth of that VC by one.
//
// RetransmitTracker is the NI-level detection/recovery layer: every packet
// accepted by an injection NI is registered in a retransmission buffer and
// held until a (hop-latency-delayed, out-of-band) ACK from the ejection NI
// retires it. A CRC failure at ejection drops the packet and NACKs the
// source, which re-creates and re-injects it; a timeout with exponential
// backoff covers packets wedged behind dead links. Retries are bounded;
// duplicate and superseded ("stale") arrivals are detected by incarnation
// id and silently consumed so sinks see each packet exactly once.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/config.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "noc/packet.hpp"
#include "topo/fabric.hpp"

namespace arinoc {

class Network;
class InjectNi;

/// Fault classes as bits of FaultParams::enable_mask.
enum FaultClass : std::uint32_t {
  kFaultCorrupt = 1u << 0,
  kFaultLinkStall = 1u << 1,
  kFaultPortFail = 1u << 2,
  kFaultCreditLoss = 1u << 3,
  kFaultAll = 0xFu,
};

/// Fault-campaign and recovery knobs for one network (derived from Config
/// by fault_params_from; all-zero rates == subsystem fully absent).
struct FaultParams {
  double corrupt_rate = 0.0;      ///< Per-link per-cycle corruption prob.
  double link_stall_rate = 0.0;   ///< Per-link per-cycle stall-window prob.
  std::uint32_t link_stall_len = 20;  ///< Stall window length (cycles).
  double port_fail_rate = 0.0;    ///< Per-link per-cycle permanent-fail prob.
  double credit_loss_rate = 0.0;  ///< Per-link per-cycle credit-drop prob.
  std::uint64_t seed = 12345;     ///< Fault RNG stream seed (own stream).
  std::uint32_t enable_mask = kFaultAll;
  bool recovery = true;           ///< CRC drop + ACK/timeout retransmission.
  Cycle rtx_timeout = 2048;       ///< Base retransmission timeout.
  std::uint32_t rtx_max_retries = 16;

  bool corrupt_on() const {
    return (enable_mask & kFaultCorrupt) != 0 && corrupt_rate > 0.0;
  }
  bool stall_on() const {
    return (enable_mask & kFaultLinkStall) != 0 && link_stall_rate > 0.0;
  }
  bool port_fail_on() const {
    return (enable_mask & kFaultPortFail) != 0 && port_fail_rate > 0.0;
  }
  bool credit_loss_on() const {
    return (enable_mask & kFaultCreditLoss) != 0 && credit_loss_rate > 0.0;
  }
  bool any_enabled() const {
    return corrupt_on() || stall_on() || port_fail_on() || credit_loss_on();
  }
};

/// Extracts the fault/recovery knobs from the central Config.
FaultParams fault_params_from(const Config& cfg);

/// Windowed fault-event counters (reset with the network stats).
struct FaultCounters {
  std::uint64_t corrupt_windows = 0;  ///< Scheduled corruption link-cycles.
  std::uint64_t stall_events = 0;     ///< Stall windows opened.
  std::uint64_t port_failures = 0;    ///< Links permanently failed.
  std::uint64_t credits_dropped = 0;  ///< Credits lost in flight.
  void reset() { *this = FaultCounters{}; }
};

class FaultInjector {
 public:
  FaultInjector(const FaultParams& params, const topo::Fabric* fabric);

  /// Draws this cycle's fault events; call exactly once per network cycle,
  /// before routers step. Fills changed_links() with links whose blocked
  /// state flipped.
  void begin_cycle(Cycle now);

  // ---- Queried by the network while staging this cycle's traffic ----
  /// True if the flit crossing link (src, dir) this cycle gets corrupted.
  bool corrupt_link(NodeId src, int dir) const {
    return link(src, dir).corrupt_now;
  }
  /// Consumes the pending single-credit-loss event on link (src, dir); at
  /// most one credit per link per cycle is dropped. Leaves the shared
  /// counter alone: domain stepping calls this concurrently — each link's
  /// state is written only by the domain owning its downstream router, but
  /// the counter would be a shared write — and folds the per-domain tallies
  /// back in at the cycle barrier via note_credits_dropped().
  bool take_credit_drop_uncounted(NodeId src, int dir) {
    LinkState& l = link(src, dir);
    if (!l.drop_credit_now) return false;
    l.drop_credit_now = false;
    return true;
  }
  /// Folds credit drops tallied off to the side (serial context only).
  void note_credits_dropped(std::uint64_t n) {
    counters_.credits_dropped += n;
  }
  /// True while link (src, dir) is stalled or permanently failed.
  bool link_blocked(NodeId src, int dir) const {
    const LinkState& l = link(src, dir);
    return l.failed || l.stalled_until > now_;
  }
  /// Links whose blocked state changed in the last begin_cycle.
  const std::vector<std::pair<NodeId, int>>& changed_links() const {
    return changed_;
  }

  /// FNV-1a digest over every drawn fault event (class, cycle, link):
  /// bit-identical across runs with the same seed/config, regardless of
  /// traffic (the determinism tests compare this).
  std::uint64_t schedule_digest() const { return digest_; }

  const FaultCounters& counters() const { return counters_; }
  void reset_counters() { counters_.reset(); }

  /// Human-readable list of currently blocked links (diagnostic dumps).
  std::string describe_blocked() const;

 private:
  struct LinkState {
    bool exists = false;
    bool failed = false;
    Cycle stalled_until = 0;
    bool corrupt_now = false;
    bool drop_credit_now = false;
    bool blocked_reported = false;  ///< Last blocked state pushed to routers.
  };

  LinkState& link(NodeId src, int dir) {
    return links_[static_cast<std::size_t>(src) * max_ports_ +
                  static_cast<std::size_t>(dir)];
  }
  const LinkState& link(NodeId src, int dir) const {
    return links_[static_cast<std::size_t>(src) * max_ports_ +
                  static_cast<std::size_t>(dir)];
  }
  void mix_digest(std::uint32_t kind, Cycle cycle, std::size_t link_index);
  FaultParams p_;
  const topo::Fabric* fabric_;
  std::size_t max_ports_;
  Xoshiro256 rng_;
  Cycle now_ = 0;
  std::vector<LinkState> links_;          // [node * max_ports + dir]
  std::vector<std::size_t> link_order_;   // Valid link indices, fixed order.
  std::vector<std::pair<NodeId, int>> changed_;
  std::uint64_t digest_ = 0xcbf29ce484222325ull;  // FNV offset basis.
  FaultCounters counters_;
};

/// Verdict for a fully reassembled packet at the ejection NI.
enum class RxOutcome {
  kDeliver,    ///< CRC clean, first arrival: hand to the sink.
  kCorrupt,    ///< CRC failed: drop; source NACKed for retransmission.
  kDuplicate,  ///< Already delivered (spurious retransmit): drop silently.
  kStale,      ///< Superseded incarnation of a retransmitted packet: drop.
};

class RetransmitTracker {
 public:
  RetransmitTracker(const FaultParams& params, Network* net,
                    const topo::Fabric* fabric, std::uint32_t link_latency);

  /// Registers the injection NI re-injections for `node` go through.
  void register_ni(NodeId node, InjectNi* ni);

  /// Called by an injection NI when it accepts a packet (fresh packets get
  /// a retransmission-buffer entry; re-injections update theirs).
  void on_accept(PacketId id, Cycle now);

  /// CRC/dedup check for a fully reassembled packet; schedules the ACK or
  /// NACK toward the source as a side effect.
  RxOutcome classify_rx(PacketId id, bool corrupted, Cycle now);

  /// Retires acked entries, fires timeouts/NACK-driven re-injections.
  void step(Cycle now);

  // ---- Stats (windowed; entry state survives resets) ----
  std::uint64_t retransmitted() const { return retransmitted_; }
  std::uint64_t retransmitted_flits() const { return retransmitted_flits_; }
  std::uint64_t recovered() const { return recovered_; }
  std::uint64_t lost() const { return lost_; }
  std::uint64_t duplicates_dropped() const { return duplicates_; }
  std::size_t pending() const { return entries_.size(); }
  /// First-accept cycle of the oldest unacked entry (livelock watchdog);
  /// `fallback` when none pending.
  Cycle oldest_pending_created(Cycle fallback) const;
  void reset_counters();

 private:
  struct Entry {
    PacketType type;
    NodeId src = kInvalidNode;
    NodeId dest = kInvalidNode;
    std::uint8_t priority = 0;
    std::uint64_t txn = 0;
    PacketId cur = kInvalidPacket;  ///< Current in-flight incarnation.
    std::uint32_t retries = 0;
    Cycle created = 0;   ///< First NI accept.
    Cycle deadline = 0;  ///< Next timeout / NACK-arrival cycle.
    Cycle ack_at = 0;    ///< ACK arrival cycle; 0 = not yet delivered.
    bool want_retx = false;
  };

  Cycle ack_latency(NodeId src, NodeId dest) const;
  void try_reinject(std::uint64_t key, Entry& e, Cycle now);

  FaultParams p_;
  Network* net_;
  const topo::Fabric* fabric_;
  std::uint32_t link_latency_;
  std::unordered_map<std::uint64_t, Entry> entries_;
  std::unordered_map<NodeId, InjectNi*> nis_;
  std::uint64_t next_key_ = 1;  // 0 == "untracked" in Packet::rtx.
  std::uint64_t retransmitted_ = 0;
  std::uint64_t retransmitted_flits_ = 0;
  std::uint64_t recovered_ = 0;
  std::uint64_t lost_ = 0;
  std::uint64_t duplicates_ = 0;
};

}  // namespace arinoc
