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
  void connect_input(int dir);

  // ---- Per-cycle interface (driven by Network) ----
  /// Delivers a flit arriving on a direction input port.
  void receive_flit(int dir, int vc, const Flit& flit);
  /// Returns a credit for one of our direction outputs.
  void receive_credit(int dir, int vc);

  /// Executes RC + VA + SA/ST for this cycle. Outbound flits/credits are
  /// appended to the vectors (cleared by the caller each cycle).
  void step(Cycle now, std::vector<OutboundFlit>* out_flits,
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

  // ---- Introspection (invariant checking, heatmaps) ----
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
    return output_connected_[static_cast<std::size_t>(dir)];
  }
  /// Fault-aware routing hook: while a direction output is blocked (the link
  /// is stalled or permanently failed), VC allocation refuses it and switch
  /// traversal holds its flits, so adaptive routing steers around the fault
  /// and nothing in flight is lost.
  void set_output_blocked(int dir, bool blocked) {
    output_blocked_[static_cast<std::size_t>(dir)] = blocked;
  }
  bool output_is_blocked(int dir) const {
    return output_blocked_[static_cast<std::size_t>(dir)];
  }
  std::uint32_t vc_depth_flits() const { return params_.vc_depth_flits; }
  /// Flits currently buffered across every input VC (direction + injection).
  /// O(1): the activity layer polls this after every step to decide whether
  /// the router may sleep.
  std::size_t buffered_flits_total() const { return buffered_total_; }

  // ---- Activity-driven stepping hooks ----
  /// Registers this router in `set` (as member `idx`) whenever a flit
  /// arrives or is injected — the only events that can give an empty router
  /// work. An empty router's step mutates nothing but its round-robin
  /// pointers, which step() replays exactly on wake, so a router sleeps iff
  /// buffered_flits_total() == 0.
  void set_activity_hook(ActiveSet* set, std::size_t idx) {
    act_set_ = set;
    act_idx_ = idx;
  }

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
    bool route_valid = false;
    /// Packet priority captured when this VC won its output VC. Active VCs
    /// arbitrate with this latch: hardware sees the priority the head flit
    /// carried through here, not later decrements by downstream routers —
    /// and the latch keeps switch arbitration free of cross-router arena
    /// reads under domain-parallel stepping.
    std::uint32_t latched_priority = 0;
  };
  struct OutputVC {
    PacketId owner = kInvalidPacket;
    std::uint32_t credits = 0;
  };
  struct Candidate {
    int in_port;
    int vc;
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
  void vc_alloc_pass(Cycle now, std::uint32_t wanted_priority, bool filter);
  void switch_stage(Cycle now, std::vector<OutboundFlit>* out_flits,
                    std::vector<OutboundCredit>* out_credits);

  /// WPF space rule: can a new packet of `flits` flits be admitted to
  /// output VC (port, vc)?
  bool output_vc_admits(int out_port, int vc, std::uint32_t flits) const;
  /// Can one flit be sent to (out_port, out_vc) right now?
  bool output_ready_for_flit(int out_port, int out_vc) const;
  std::uint32_t output_free_space(int out_port, int out_vc) const;
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
  std::vector<bool> output_connected_;  // direction outputs only
  std::vector<bool> output_blocked_;    // fault injector (stall/port-fail)
  std::vector<bool> input_connected_;
  FlitBuffer ejection_buf_;

  // Rotating pointers for fairness.
  std::vector<std::size_t> input_rr_;            // per input port, over VCs
  std::vector<PriorityArbiter> output_arb_;      // per output port
  std::size_t va_rr_ = 0;                        // over all input VCs

  const obs::PacketSink* sink_ = nullptr;

  // Wake hook into the owning network domain's active set (null for a
  // router stepped on its own).
  ActiveSet* act_set_ = nullptr;
  std::size_t act_idx_ = 0;
  /// Next cycle this router expects to step; the gap to `now` is the slept
  /// span whose idle round-robin rotations step() replays on wake.
  Cycle next_cycle_ = 0;
  std::size_t buffered_total_ = 0;

  // Stats.
  std::vector<std::uint64_t> out_flit_count_;  // [output_port]; last=eject
  std::uint64_t injected_flit_count_ = 0;
  std::uint64_t ejected_flit_count_ = 0;
  std::uint64_t crossbar_count_ = 0;
};

}  // namespace arinoc
