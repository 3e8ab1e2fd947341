// Virtual-channel wormhole router with credit-based flow control and a
// separable input-first allocator (Table I), extended with the two ARI
// consumption-side mechanisms (paper §4.2, §5):
//
//  * per-injection-port crossbar speedup S: the injection port may win up to
//    S switch ports per cycle (Eq. (1)/(2) bound the useful S);
//  * multi-level packet prioritization: output-port switch arbitration
//    prefers higher packet priority; the route-computation unit decrements
//    the priority of every forwarded packet, and a starvation threshold
//    restores fairness.
//
// The router also supports multiple injection input ports (the MultiPort [3]
// comparator) and WPF-style non-atomic VC allocation (Table I note).
//
// step() never allocates: VC buffers are fixed rings, route candidates live
// inline, and the allocators work from per-port VC bit masks and
// router-owned scratch sized at construction (docs/noc.md, "Router").
#pragma once

#include <cstdint>
#include <vector>

#include "common/active_set.hpp"
#include "common/config.hpp"
#include "common/types.hpp"
#include "noc/arbiter.hpp"
#include "noc/buffer.hpp"
#include "noc/packet.hpp"
#include "noc/routing.hpp"

namespace arinoc {

namespace obs {
struct PacketSink;
}

struct RouterParams {
  NodeId node = 0;
  std::uint32_t num_vcs = 4;
  std::uint32_t vc_depth_flits = 5;
  std::uint32_t num_injection_ports = 1;
  std::uint32_t injection_speedup = 1;  ///< S, per injection port.
  RoutingAlgo routing = RoutingAlgo::kXY;
  std::uint32_t priority_levels = 1;
  Cycle starvation_threshold = 1000;
  bool non_atomic_vc = true;
  std::uint32_t ejection_capacity_flits = 20;
};

/// One flit leaving the router toward a neighbouring router this cycle.
struct OutboundFlit {
  int out_dir;  ///< Fabric output port (kNorth..kWest on meshes).
  int out_vc;
  Flit flit;
};

/// Credit returned to the upstream router for a direction input port.
struct OutboundCredit {
  int in_dir;  ///< Which of our direction inputs freed a slot.
  int vc;
};

class Router {
 public:
  /// `fabric` supplies the radix, adjacency, and route computation; the
  /// router has fabric->max_ports() direction ports (ports beyond them are
  /// injection inputs / the ejection output).
  Router(const RouterParams& params, const topo::Fabric* fabric,
         PacketArena* arena);

  // ---- Wiring (done once by Network) ----
  /// Marks a direction output as connected (edge ports stay disconnected).
  void connect_output(int dir, std::uint32_t downstream_depth_flits);

  // ---- Per-cycle interface (driven by Network) ----
  /// Delivers a flit arriving on a direction input port.
  void receive_flit(int dir, int vc, const Flit& flit);
  /// Returns a credit for one of our direction outputs.
  void receive_credit(int dir, int vc);

  /// Executes RC + VA + SA/ST for this cycle. Outbound flits/credits are
  /// appended to the vectors (cleared by the caller each cycle). Returns
  /// whether the step made progress: moved a flit through the switch or
  /// granted an output VC.
  bool step(Cycle now, std::vector<OutboundFlit>* out_flits,
            std::vector<OutboundCredit>* out_credits);

  // ---- Injection-side interface (used by NIs; same-tile, no credit lag) ----
  std::uint32_t num_injection_ports() const { return params_.num_injection_ports; }
  std::uint32_t num_vcs() const { return params_.num_vcs; }
  /// Free flit slots in injection port `ip`, VC `vc`.
  std::uint32_t injection_free(std::uint32_t ip, std::uint32_t vc) const;
  /// True if VC `vc` of injection port `ip` can start a new packet of
  /// `flits` flits (respects the VC-allocation atomicity policy).
  bool injection_vc_ready(std::uint32_t ip, std::uint32_t vc,
                          std::uint32_t flits) const;
  void inject_flit(std::uint32_t ip, std::uint32_t vc, const Flit& flit,
                   Cycle now);

  // ---- Ejection-side interface ----
  bool has_ejected_flit() const { return !ejection_buf_.empty(); }
  Flit pop_ejected_flit();
  std::size_t ejection_backlog() const { return ejection_buf_.size(); }

  // ---- Introspection (invariant checking, diagnostic dumps) ----
  /// Credit counter for direction output (dir, vc).
  std::uint32_t output_credits(int dir, int vc) const {
    return output_vcs_[static_cast<std::size_t>(dir) * params_.num_vcs +
                       static_cast<std::size_t>(vc)]
        .credits;
  }
  /// Flits buffered in direction input (dir, vc).
  std::size_t input_buffered(int dir, int vc) const {
    return ivc(dir, vc).buf.size();
  }
  bool output_is_connected(int dir) const {
    return (connected_out_ >> dir) & 1u;
  }
  /// Fault-aware routing hook: while a direction output is blocked (the link
  /// is stalled or permanently failed), VC allocation refuses it and switch
  /// traversal holds its flits, so adaptive routing steers around the fault
  /// and nothing in flight is lost.
  void set_output_blocked(int dir, bool blocked) {
    const std::uint64_t bit = std::uint64_t{1} << dir;
    blocked_out_ = blocked ? (blocked_out_ | bit) : (blocked_out_ & ~bit);
    ++out_ports_[static_cast<std::size_t>(dir)].opened;
  }
  bool output_is_blocked(int dir) const { return (blocked_out_ >> dir) & 1u; }
  std::uint32_t vc_depth_flits() const { return params_.vc_depth_flits; }
  /// Flits currently buffered across every input VC (direction + injection).
  /// O(1): the activity layer polls this after every step to decide whether
  /// the router may sleep.
  std::size_t buffered_flits_total() const { return buffered_total_; }

  // ---- Activity-driven stepping hooks ----
  /// Calls to step() so far: the ground truth for the self-profiler's
  /// wake totals.
  std::uint64_t steps() const { return steps_; }
  /// Registers this router in `set` (as member `idx`). A router sleeps
  /// after a step unless it still holds flits and the step made progress.
  /// A step without progress changed nothing but the round-robin pointers
  /// (which step() replays on wake) and VA failure stamps (a retry fails
  /// until `opened` moves), so the router next acts only on an edge that
  /// wakes it: a flit arriving or injected, a blocked-link transition
  /// (Network::step), or — while it holds flits — a credit returned
  /// or an ejection-buffer pop.
  void set_activity_hook(ActiveSet* set, std::size_t idx) {
    act_set_ = set;
    act_idx_ = idx;
  }
  /// Registers the same-tile injection NI as member `idx` of `set`. An NI
  /// whose head packet cannot enter calls wait_for_injection() and sleeps;
  /// the next flit leaving any injection VC wakes it. The NIs step before
  /// the network, so a woken NI acts on the freed slot next cycle, as in
  /// always-on mode.
  void set_injection_hook(ActiveSet* set, std::size_t idx) {
    ni_set_ = set;
    ni_idx_ = idx;
  }
  void wait_for_injection() { ni_waiting_ = true; }

  /// Attaches the owning network's per-packet event sink (null detaches).
  /// Observers are pure: hooks fire next to existing bookkeeping and never
  /// alter router state.
  void set_sink(const obs::PacketSink* sink) { sink_ = sink; }

  // ---- Stats ----
  std::uint64_t flits_sent(int out_dir) const { return out_flit_count_[static_cast<std::size_t>(out_dir)]; }
  std::uint64_t flits_injected() const { return injected_flit_count_; }
  std::uint64_t flits_ejected() const { return ejected_flit_count_; }
  std::uint64_t crossbar_traversals() const { return crossbar_count_; }
  void reset_stats();

  NodeId node() const { return params_.node; }

 private:
  struct InputVC {
    FlitBuffer buf;
    enum class State { kIdle, kWaitVC, kActive } state = State::kIdle;
    int out_port = -1;
    int out_vc = -1;
    RouteCandidates route;
    Cycle wait_since = 0;
    /// 0, or 1 + opened_sum(route) when VC allocation last failed for the
    /// waiting packet. While the sum is unchanged none of its outputs has
    /// gained anything that could admit it, so a retry would fail again
    /// (a failed attempt changes nothing) and VC allocation skips it.
    std::uint64_t va_failed_at = 0;
    /// Packet priority and length captured when the head flit was routed
    /// here. Route computation is the last writer of the priority before
    /// the head leaves (no other router holds the head), so waiting VCs
    /// see the live value; active VCs keep it while later routers decrement
    /// the arena field, as hardware sees the priority the head flit carried
    /// through here. The latch also keeps VC and switch allocation free of
    /// arena reads.
    std::uint32_t latched_priority = 0;
    std::uint32_t latched_flits = 0;
  };
  struct OutputVC {
    PacketId owner = kInvalidPacket;
    std::uint32_t credits = 0;
  };
  /// VC sets of one input port, bit = VC (num_vcs <= 64, Config::validate).
  /// Each changes exactly where the state it mirrors does, so a stage
  /// visits only the VCs that can act: route_stage the idle occupied ones,
  /// VA the waiting ones, switch allocation the active occupied ones.
  struct InputPort {
    std::uint64_t occupied = 0;  ///< Buffer non-empty.
    std::uint64_t waiting = 0;   ///< State::kWaitVC.
    std::uint64_t active = 0;    ///< State::kActive.
  };
  struct OutputPort {
    std::uint64_t free_vcs = 0;  ///< Output VCs no packet owns (bit = VC).
    /// Events that can admit a packet where none fit before: a credit
    /// returned to a free VC, an output VC released, a blocked-state
    /// change, an ejection-buffer pop. Only ever grows.
    std::uint64_t opened = 0;
    PriorityArbiter arb;  ///< Switch arbitration over input slots.
    /// This cycle's switch requests, at sw_req_[port * num_inputs()].
    std::uint32_t num_requests = 0;
  };
  /// A waiting VC (flat port * num_vcs + vc) queued for one VA stage, with
  /// its effective priority.
  struct VaEntry {
    std::uint32_t idx;
    std::uint32_t key;
  };

  std::uint32_t num_inputs() const {
    return static_cast<std::uint32_t>(num_dirs_) +
           params_.num_injection_ports;
  }
  std::uint32_t num_outputs() const {
    return static_cast<std::uint32_t>(num_dirs_) + 1;  // +1: ejection.
  }
  bool is_injection_port(int in_port) const { return in_port >= num_dirs_; }
  InputVC& ivc(int port, int vc) {
    return input_vcs_[static_cast<std::size_t>(port) * params_.num_vcs +
                      static_cast<std::size_t>(vc)];
  }
  const InputVC& ivc(int port, int vc) const {
    return input_vcs_[static_cast<std::size_t>(port) * params_.num_vcs +
                      static_cast<std::size_t>(vc)];
  }
  OutputVC& ovc(int port, int vc) {
    return output_vcs_[static_cast<std::size_t>(port) * params_.num_vcs +
                       static_cast<std::size_t>(vc)];
  }

  void route_stage(Cycle now);
  void vc_alloc_stage(Cycle now);
  /// Tries to give waiting input VC `idx` (flat port * num_vcs + vc) an
  /// output VC.
  void vc_alloc_one(std::size_t idx, Cycle now);
  void switch_stage(Cycle now, std::vector<OutboundFlit>* out_flits,
                    std::vector<OutboundCredit>* out_credits);

  /// The lowest VC in `free` (free output VCs of `out_port`) that admits a
  /// new packet of `flits` flits under the WPF space rule, or -1.
  int first_admitting_vc(int out_port, std::uint64_t free,
                         std::uint32_t flits) const;
  /// Can one flit be sent to (out_port, out_vc) right now?
  bool output_ready_for_flit(int out_port, int out_vc) const;
  /// Free flit slots summed over the VCs of an output port (adaptive VA's
  /// port preference).
  std::uint32_t port_free_space(int out_port) const;
  /// OutputPort::opened summed over a route's candidate ports (the escape
  /// port is one of them).
  std::uint64_t opened_sum(const RouteCandidates& route) const;
  /// Effective arbitration priority of a packet in an input VC, including
  /// the starvation override (paper §5).
  std::uint32_t effective_priority(const InputVC& v, Cycle now) const;

  RouterParams params_;
  const topo::Fabric* fabric_;
  /// Direction-port count (= fabric radix). The ejection output is port
  /// num_dirs_ (the fabric's local port), injection inputs start at
  /// num_dirs_. Declared before the containers sized off it.
  int num_dirs_;
  PacketArena* arena_;

  std::vector<InputVC> input_vcs_;    // [input_port][vc]
  std::vector<OutputVC> output_vcs_;  // [output_port][vc]; last = ejection
  FlitBuffer ejection_buf_;
  // Direction outputs, bit = port (fabric radix <= topo::kMaxPorts).
  std::uint64_t connected_out_ = 0;
  std::uint64_t blocked_out_ = 0;  // fault injector (stall/port-fail)

  std::vector<InputPort> in_ports_;
  std::vector<OutputPort> out_ports_;  // last = ejection
  std::size_t num_waiting_ = 0;  // VCs in State::kWaitVC, all ports

  // Rotating pointers for fairness (the output ports' arbiters hold the
  // third kind). Every input port's VC pointer rotates by one each cycle,
  // so one counter serves them all.
  std::uint32_t input_rr_ = 0;  // over an input port's VCs
  std::size_t va_rr_ = 0;       // over all input VCs

  // Per-cycle scratch, sized once: switch requests ([output][input], at
  // most one per input port per output) and the waiting VCs of one VA
  // stage in round-robin order.
  std::vector<ArbRequest> sw_req_;
  std::vector<VaEntry> va_order_;

  const obs::PacketSink* sink_ = nullptr;

  // Wake hook into the owning network's active set (null for a router
  // stepped on its own).
  ActiveSet* act_set_ = nullptr;
  std::size_t act_idx_ = 0;
  // The injection NI's wake hook (set_injection_hook) and its handshake.
  ActiveSet* ni_set_ = nullptr;
  std::size_t ni_idx_ = 0;
  bool ni_waiting_ = false;
  /// Next cycle this router expects to step; the gap to `now` is the slept
  /// span whose idle round-robin rotations step() replays on wake.
  Cycle next_cycle_ = 0;
  std::uint64_t steps_ = 0;
  std::size_t buffered_total_ = 0;

  // Stats.
  std::vector<std::uint64_t> out_flit_count_;  // [output_port]; last=eject
  std::uint64_t injected_flit_count_ = 0;
  std::uint64_t ejected_flit_count_ = 0;
  std::uint64_t crossbar_count_ = 0;
};

}  // namespace arinoc
