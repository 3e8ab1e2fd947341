// Latency-attribution engine (observability subsystem, layer 2).
//
// A LatencyAttributor splits every delivered packet's end-to-end latency
// into exact additive stage components by timestamping the stage boundaries
// a packet crosses on its way through the fabric:
//
//   stage      boundary interval                         meaning
//   --------   ---------------------------------------   --------------------
//   ni_queue   NI accept -> head enters injection VC     source-NI queueing
//   vc_wait    head at router -> output VC allocated     VC-allocation wait
//   sw_wait    VC allocated -> head leaves the router    switch-arbitration
//                                                        + credit wait
//   link       head on the wire -> head at next router   link traversal
//                                                        (incl. serdes extra)
//   eject      head enters ejection buffer -> delivery   ejection drain, body
//                                                        serialization,
//                                                        reassembly, sink wait
//   retx       first NI accept -> accept of the final    fault-retransmission
//              (delivered) incarnation                   overhead
//
// Because every hook advances one shared `last` timestamp, the components
// telescope: their sum equals (delivery cycle - first NI-accept cycle) by
// construction, and the engine verifies this per packet (any missed or
// doubled hook shows up as a conservation violation, enforced by tests).
//
// Aggregation:
//  * per-(net, type) stage totals over delivered packets (exact partition of
//    total delivered e2e latency);
//  * per-(net, stage, node, port, vc) location totals -> top-k bottleneck
//    report ("reply ni_queue at mc21: 61% of attributed reply cycles");
//  * per-(link, vc, type) time-windowed congestion series for the heatmap
//    dashboard (attr_html_document()).
// Location totals and the current window's cells are dense tables sized by
// set_topology() from the fabric's node count, radix and VC count (see
// docs/observability.md for their size); a hook is an index computation and
// an add. Per-packet decompositions are not kept: each is checked for
// conservation at delivery and folded into the totals.
//
// The hooks arrive through the NoC's one per-packet event sink
// (obs/sink.hpp), shared with the PacketTracer; with no observer attached
// every hook is one branch on a null sink and results are bit-identical to
// an unattributed run (guarded by the Attr.* tests and the CI attribution
// smoke).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "noc/packet.hpp"
#include "topo/graph.hpp"

namespace arinoc::topo {
class Fabric;
}  // namespace arinoc::topo

namespace arinoc::obs {

enum class AttrStage : std::uint8_t {
  kNiQueue = 0,
  kVcWait,
  kSwWait,
  kLink,
  kEject,
  kRetx,
};
inline constexpr std::size_t kNumAttrStages = 6;

const char* attr_stage_name(AttrStage s);

/// One row of the top-k bottleneck report: total cycles a stage accumulated
/// at one location, over all packets that crossed it (delivered or not).
struct BottleneckEntry {
  std::uint8_t net = 0;
  AttrStage stage = AttrStage::kNiQueue;
  NodeId node = kInvalidNode;
  int port = -1;  ///< Output port for vc/sw/link stages; -1 = not port-bound.
  int vc = -1;    ///< Output VC for vc/sw stages; -1 = not VC-bound.
  std::uint64_t cycles = 0;
  std::uint64_t count = 0;  ///< Stage crossings accumulated here.
  double share = 0.0;       ///< Of all attributed cycles on this net.
};

/// One cell of the windowed congestion series: in-router wait attributed to
/// one (link, output VC, packet type) during one time window.
struct AttrWindowCell {
  std::uint32_t window = 0;  ///< Window index (cycle / window_cycles).
  std::uint8_t net = 0;
  NodeId node = kInvalidNode;  ///< Upstream router of the link.
  int port = -1;               ///< Output port (the link); -1 = ejection.
  int vc = -1;
  PacketType type = PacketType::kReadRequest;
  std::uint64_t vc_wait = 0;
  std::uint64_t sw_wait = 0;
  std::uint64_t count = 0;  ///< Head flits that departed over this link.
};

class LatencyAttributor {
 public:
  static constexpr Cycle kDefaultWindow = 512;

  explicit LatencyAttributor(Cycle window_cycles = kDefaultWindow);

  /// Sizes the location and window tables for `fabric` with `num_vcs` VCs
  /// per port; must precede the first hook. The fabric's graph is copied
  /// for node-role labels, so reports stay valid after the simulator that
  /// attached us (and the fabric it owns) are gone. Re-attaching to a
  /// fabric of the same shape keeps what was accumulated; another shape
  /// starts both tables afresh.
  void set_topology(const topo::Fabric& fabric, std::uint32_t num_vcs);

  // ---- Hook points (called by NI / router / network / fault code) ----
  void on_ni_enqueue(std::uint8_t net, PacketId id, PacketType type,
                     NodeId node, Cycle now);
  /// Re-injection of a tracked packet: re-bases the span to the original
  /// incarnation's accept cycle and books the gap as retransmission
  /// overhead. Fires after the re-injection's on_ni_enqueue.
  void on_retransmit(std::uint8_t net, PacketId id, Cycle first_accept,
                     Cycle now);
  void on_inject(std::uint8_t net, PacketId id, NodeId node, Cycle now);
  void on_head_arrive(std::uint8_t net, PacketId id, NodeId node, Cycle now);
  void on_vc_alloc(std::uint8_t net, PacketId id, NodeId node, int out_port,
                   int out_vc, Cycle now);
  void on_link_depart(std::uint8_t net, PacketId id, NodeId node,
                      int out_port, Cycle now);
  void on_eject_start(std::uint8_t net, PacketId id, NodeId node, Cycle now);
  void on_deliver(std::uint8_t net, PacketId id, Cycle now);
  void on_drop(std::uint8_t net, PacketId id, Cycle now);

  // ---- Results ----
  Cycle window_cycles() const { return window_; }
  std::uint64_t delivered() const { return delivered_; }
  std::uint64_t dropped() const { return dropped_; }
  std::uint64_t conservation_violations() const { return violations_; }
  /// Packets still in flight (attributed but not yet delivered/dropped).
  std::uint64_t inflight() const { return inflight_; }

  /// Total cycles stage `s` accumulated on `net` over delivered packets.
  std::uint64_t stage_total(std::uint8_t net, AttrStage s) const {
    return stage_totals_[net][static_cast<std::size_t>(s)];
  }
  /// Total e2e cycles of delivered packets on `net` (== sum of stage
  /// totals when conservation holds).
  std::uint64_t e2e_total(std::uint8_t net) const { return e2e_totals_[net]; }
  std::uint64_t delivered_on(std::uint8_t net) const {
    return delivered_net_[net];
  }

  /// Top-k locations by accumulated stage cycles, both networks merged,
  /// ranked by cycles descending (ties in (net, stage, node, port, vc)
  /// order).
  std::vector<BottleneckEntry> bottlenecks(std::size_t k) const;

  /// Windowed congestion series, sorted by (window, net, node, port, vc,
  /// type) for deterministic output.
  std::vector<AttrWindowCell> window_series() const;

  /// Human-readable label of one bottleneck entry ("reply ni_queue at
  /// mc21", "reply sw_wait at rtr3->mc1 vc0"); uses set_topology() roles
  /// when available.
  std::string entry_label(const BottleneckEntry& e) const;
  /// Compact rank-1 label + share for CSV columns ("reply ni_queue@mc21
  /// 61%"); empty when nothing was attributed.
  std::string top_label() const;

  /// The full attribution report as JSON (schema "arinoc-attr-v1").
  std::string to_json(std::size_t top_k = 10) const;

  void clear();

 private:
  struct Live {
    Cycle origin = 0;
    Cycle last = 0;
    NodeId src = kInvalidNode;
    NodeId node = kInvalidNode;  ///< Router currently holding the head.
    PacketType type = PacketType::kReadRequest;
    bool active = false;    ///< Slot tracks an in-flight packet.
    int pending_port = -1;  ///< Output port granted by VC allocation.
    int pending_vc = -1;
    std::uint64_t hop_vc_wait = 0;  ///< This hop's vc_wait (window series).
    std::uint64_t stage[kNumAttrStages] = {};
  };

  // PacketIds are dense arena slot indices, so the live table is a flat
  // per-net vector instead of a hash map — the hooks run on every hop of
  // every packet, and a bounds check + flag beats a bucket walk there.
  Live* find_live(std::uint8_t net, PacketId id) {
    std::vector<Live>& v = live_[net];
    if (id >= v.size() || !v[id].active) return nullptr;
    return &v[id];
  }

  /// Dense table index of one (outer, node, port, vc) site: `outer` is
  /// net * kNumAttrStages + stage for location totals and net for window
  /// cells. Ascending index order is (outer, node, port, vc) order.
  std::size_t site_index(std::size_t outer, NodeId node, int port,
                         int vc) const {
    return ((outer * nodes_ + static_cast<std::size_t>(node)) * ports_ +
            static_cast<std::size_t>(port + 1)) *
               vcs_ +
           static_cast<std::size_t>(vc + 1);
  }
  struct Site {
    std::size_t outer = 0;
    NodeId node = kInvalidNode;
    int port = -1;
    int vc = -1;
  };
  Site site_of(std::size_t index) const;

  struct LocSums {
    std::uint64_t cycles = 0;
    std::uint64_t count = 0;
  };
  struct WinSums {
    std::uint64_t vc_wait = 0;
    std::uint64_t sw_wait = 0;
    std::uint64_t count = 0;
  };
  struct TypeSums {
    std::uint64_t delivered = 0;
    std::uint64_t e2e = 0;
    std::uint64_t stage[kNumAttrStages] = {};
  };

  void add_loc(std::uint8_t net, AttrStage stage, NodeId node, int port,
               int vc, std::uint64_t cycles);
  std::string node_label(std::uint8_t net, NodeId node) const;

  std::uint32_t window_index(Cycle now) const {
    return static_cast<std::uint32_t>(win_shift_ >= 0 ? now >> win_shift_
                                                      : now / window_);
  }
  /// The window-series cell of (net, node, port, vc, type) in `window`.
  /// Writes land in the current window's table; when the window advances,
  /// flush_window() moves its cells to `win_done_`.
  WinSums& win_cell(std::uint32_t window, std::uint8_t net, NodeId node,
                    int port, int vc, PacketType type) {
    if (window != win_cur_window_) flush_window(window);
    return win_cur_[site_index(net, node, port, vc) * kNumPacketTypes +
                    static_cast<std::size_t>(type)];
  }
  void flush_window(std::uint32_t next_window);
  /// Appends the current window's non-empty cells in table order.
  void append_window(std::vector<AttrWindowCell>& out) const;

  Cycle window_;
  int win_shift_ = -1;  ///< log2(window_) when window_ is a power of two.
  std::vector<Live> live_[2];  ///< Indexed by PacketId (arena slot).
  std::uint64_t inflight_ = 0;
  // Table shape, from set_topology(): ports run from -1 (not port-bound;
  // ejection in the series) to the local port, VCs from -1 to num_vcs - 1.
  std::size_t nodes_ = 0;
  std::size_t ports_ = 0;  ///< local_port() + 2.
  std::size_t vcs_ = 0;    ///< num_vcs + 1.
  /// Location totals, indexed site_index(net * kNumAttrStages + stage, ...).
  std::vector<LocSums> loc_;
  /// Cells of the window being recorded, indexed site_index(net, ...) *
  /// kNumPacketTypes + type.
  std::vector<WinSums> win_cur_;
  std::uint32_t win_cur_window_ = 0;
  std::vector<AttrWindowCell> win_done_;  ///< Flushed windows, in order.
  // Per-net aggregates over delivered packets (exact e2e partition).
  std::uint64_t stage_totals_[2][kNumAttrStages] = {};
  std::uint64_t e2e_totals_[2] = {};
  std::uint64_t delivered_net_[2] = {};
  /// Event-time cycles attributed per net (delivered or not); bottleneck
  /// shares are fractions of this.
  std::uint64_t attributed_net_[2] = {};
  TypeSums type_sums_[2][kNumPacketTypes];
  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t violations_ = 0;
  topo::FabricGraph graph_{};  ///< Empty until set_topology().
};

/// Self-contained HTML dashboard: per-link stage heatmap over the fabric
/// layout with a time slider over the attribution windows plus the top-k
/// bottleneck table. `graph` may be null (falls back to a circular layout).
std::string attr_html_document(const LatencyAttributor& attr,
                               const topo::FabricGraph* graph,
                               std::size_t top_k = 10);

}  // namespace arinoc::obs
