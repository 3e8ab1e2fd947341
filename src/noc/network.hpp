// A full mesh network instance: routers, pipelined links, credit return
// paths, a packet arena and delivery statistics. The GPGPU system owns two
// of these (request network and reply network, paper Fig. 2).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/active_set.hpp"
#include "common/config.hpp"
#include "common/types.hpp"
#include "noc/fault.hpp"
#include "noc/noc_stats.hpp"
#include "noc/packet.hpp"
#include "noc/router.hpp"
#include "topo/fabric.hpp"

namespace arinoc {

namespace obs {
struct PacketSink;
}

/// Per-network geometry/behaviour knobs derived from Config by the caller
/// (request and reply networks differ in link width and NI/router features).
struct NetworkParams {
  std::string name = "net";
  std::uint32_t link_width_bits = 128;
  std::uint32_t data_payload_bits = 512;  ///< Payload of a long packet.
  std::uint32_t num_vcs = 4;
  std::uint32_t vc_depth_flits = 5;
  std::uint32_t link_latency = 1;
  RoutingAlgo routing = RoutingAlgo::kXY;
  bool non_atomic_vc = true;
  std::uint32_t priority_levels = 1;
  Cycle starvation_threshold = 1000;
  /// Injection crossbar speedup at MC routers (ARI §4.2); non-MC routers
  /// always use speedup 1 (the paper changes only MC-routers).
  std::uint32_t mc_injection_speedup = 1;
  /// Number of injection input ports at MC routers (MultiPort [3]).
  std::uint32_t mc_injection_ports = 1;
  /// Which nodes get the enhanced-router treatment (speedup / extra
  /// ports). The paper applies it to MC routers of the reply network only;
  /// treat_ccs_specially exists for the request-side negative control.
  bool treat_mcs_specially = false;
  bool treat_ccs_specially = false;
  /// Fault campaign + recovery knobs. All rates zero (the default) means no
  /// injector or tracker is even constructed — a strict no-op.
  FaultParams fault;
  /// Activity-driven stepping: step() iterates only routers that can do
  /// work this cycle (see Router::set_activity_hook). Host-side execution
  /// strategy only — simulated behaviour is bit-identical either way.
  bool activity_driven = false;
};

class Network {
 public:
  /// Builds the network over an externally owned fabric (any topology).
  Network(const NetworkParams& params, const topo::Fabric* fabric);
  ~Network();
  /// Routers hold wake hooks into this object's active set.
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Advances the network by one cycle: draws this cycle's faults, delivers
  /// the due link-pipeline slot, steps the woken routers in ascending node
  /// order, advances the pipeline and steps the retransmission tracker.
  void step(Cycle now);

  Router& router(NodeId n) { return *routers_[static_cast<std::size_t>(n)]; }
  const Router& router(NodeId n) const {
    return *routers_[static_cast<std::size_t>(n)];
  }

  PacketArena& arena() { return arena_; }
  const PacketArena& arena() const { return arena_; }
  const topo::Fabric& fabric() const { return *fabric_; }
  const NetworkParams& params() const { return params_; }

  /// Creates a packet sized for this network's link width.
  PacketId make_packet(PacketType type, NodeId src, NodeId dest,
                       std::uint8_t priority, std::uint64_t txn, Cycle now);
  /// Number of flits a packet of `type` occupies on this network.
  std::uint16_t flits_for(PacketType type) const;

  /// Records delivery stats and retires the packet. Called by ejection NIs
  /// after the sink has consumed the payload.
  void finish_packet(PacketId id, Cycle now);

  /// Un-creates a packet that was never accepted by an NI (the sender keeps
  /// the data and retries later).
  void abandon_packet(PacketId id) {
    --stats_.packets_injected;
    arena_.retire(id);
  }

  NocStats& stats() { return stats_; }
  const NocStats& stats() const { return stats_; }

  // ---- Fault-injection / recovery (null when no fault class enabled) ----
  FaultInjector* fault() { return fault_.get(); }
  const FaultInjector* fault() const { return fault_.get(); }
  RetransmitTracker* retransmit() { return rtx_.get(); }
  const RetransmitTracker* retransmit() const { return rtx_.get(); }

  /// CRC / dedup verdict for a fully reassembled packet (delegates to the
  /// retransmission tracker; without one, corruption means the packet is
  /// simply lost).
  RxOutcome classify_rx(PacketId id, bool corrupted, Cycle now);
  /// Retires a packet that will NOT be delivered to the sink (corrupt,
  /// duplicate, or stale), keeping the drop statistics.
  void drop_packet(PacketId id, Cycle now, RxOutcome why);

  /// Total credits intentionally destroyed by the fault injector on each
  /// link; validate_credit_invariants accounts for them.
  std::uint64_t credits_lost_total() const;

  /// Monotone activity counter (flits injected + ejected + crossbar
  /// traversals over all routers); the watchdog detects deadlock by
  /// watching this stop changing.
  std::uint64_t movement_count() const;

  // ---- Link-utilization probes (paper §3) ----
  /// Mean flits/cycle over all connected router-to-router links.
  double internal_link_utilization(Cycle elapsed) const;
  /// Mean flits/cycle over NI->router injection links of the given nodes.
  double injection_link_utilization(Cycle elapsed,
                                    const std::vector<NodeId>& nodes) const;
  void reset_stats();

  // ---- Observability ----
  /// Attaches the observers named in `observers` (tracer, attributor, and
  /// the net tag of their events: 0 = request, 1 = reply) to this network
  /// and all its routers. A sink naming neither observer detaches.
  void set_observers(const obs::PacketSink& observers);
  /// The event sink every hook point calls; null unless an observer is
  /// attached.
  const obs::PacketSink* sink() const { return sink_.get(); }

  /// Routers stepped in the last cycle (the self-profiler's wake
  /// statistic; every router in always-on mode).
  std::uint64_t routers_stepped() const { return routers_stepped_; }

  std::uint32_t num_internal_links() const { return num_internal_links_; }
  /// Total flits sent over router-to-router links (cumulative).
  std::uint64_t internal_flits_total() const;
  /// Flits currently buffered in router input VCs (instantaneous).
  std::uint64_t buffered_flits_total() const;

  /// Verifies the credit-conservation invariant on every link: upstream
  /// credits + downstream buffered flits + in-flight flits + in-flight
  /// credits == VC depth. Returns an empty string, or a description of the
  /// first violation (a lost/duplicated credit or flit).
  std::string validate_credit_invariants() const;

 private:
  struct FlitEvent {
    NodeId dst;
    int in_dir;
    int vc;
    Flit flit;
  };
  struct CreditEvent {
    NodeId dst;
    int out_dir;
    int vc;
  };

  /// Steps router `n` and stages its outputs onto the link pipeline.
  /// Returns whether the router made progress (Router::step).
  bool step_router(NodeId n, Cycle now, std::size_t send_slot);
  /// Ring slot that delivers `lat` cycles after `send_slot` (lat is in
  /// [1, ring size]; lat == ring size lands back on send_slot itself, the
  /// uniform-latency fast path).
  std::size_t slot_after(std::size_t send_slot, std::size_t lat) const {
    return (send_slot + (lat % ring_slots_)) % ring_slots_;
  }

  NetworkParams params_;
  const topo::Fabric* fabric_;
  std::uint32_t base_link_latency_ = 1;  ///< max(1, params.link_latency).
  PacketArena arena_;
  std::vector<std::unique_ptr<Router>> routers_;
  /// Link-pipeline ring geometry (slots cover the slowest link) and the
  /// slot delivering this cycle.
  std::size_t ring_slots_ = 1;
  std::size_t ring_pos_ = 0;
  /// Events in flight on the link pipeline, indexed by delivery slot.
  std::vector<std::vector<FlitEvent>> flit_ring_;
  std::vector<std::vector<CreditEvent>> credit_ring_;
  /// Routers that may do work this cycle, by node id.
  ActiveSet act_;
  std::vector<OutboundFlit> scratch_flits_;
  std::vector<OutboundCredit> scratch_credits_;
  std::uint32_t num_internal_links_ = 0;
  std::uint64_t routers_stepped_ = 0;  ///< Last cycle.
  NocStats stats_;
  // Fault subsystem (null unless some fault class is enabled).
  std::unique_ptr<FaultInjector> fault_;
  std::unique_ptr<RetransmitTracker> rtx_;
  // Credits destroyed per (node, dir, vc); sized only under credit loss.
  std::vector<std::uint32_t> credits_lost_;
  // Observability (null unless an observer is attached).
  std::unique_ptr<obs::PacketSink> sink_;
};

}  // namespace arinoc
