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
//
// The hooks arrive through the NoC's one per-packet event sink
// (obs/sink.hpp), shared with the PacketTracer; with no observer attached
// every hook is one branch on a null sink and results are bit-identical to
// an unattributed run (guarded by the Attr.* tests and the CI attribution
// smoke).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "noc/packet.hpp"
#include "topo/graph.hpp"

namespace arinoc::obs {

/// Open-addressed u64 -> V accumulator map for the attribution hot paths:
/// linear probing over a power-of-two slot array, insert-or-find only
/// (no erase; clear() drops everything). Keys are stored biased by +1 so 0
/// marks an empty slot — the packed location/window keys can legitimately
/// be 0 and can never be UINT64_MAX.
template <typename V>
class AttrFlatMap {
 public:
  V& operator[](std::uint64_t key) {
    if ((size_ + 1) * 4 > slots_.size() * 3) grow();
    const std::uint64_t k1 = key + 1;
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = mix(key) & mask;
    while (true) {
      Slot& s = slots_[i];
      if (s.key1 == k1) return s.v;
      if (s.key1 == 0) {
        s.key1 = k1;
        ++size_;
        return s.v;
      }
      i = (i + 1) & mask;
    }
  }

  std::size_t size() const { return size_; }

  /// Empties the map but keeps the slot array allocated (the window staging
  /// map is cleared once per window and immediately refilled).
  void clear() {
    for (Slot& s : slots_) s = Slot{};
    size_ = 0;
  }

  template <typename F>
  void for_each(F f) const {
    for (const Slot& s : slots_) {
      if (s.key1 != 0) f(s.key1 - 1, s.v);
    }
  }

 private:
  struct Slot {
    std::uint64_t key1 = 0;  ///< key + 1; 0 = empty.
    V v{};
  };

  // splitmix64 finalizer: the packed keys differ mostly in their low bits.
  static std::size_t mix(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return static_cast<std::size_t>(x ^ (x >> 31));
  }

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.empty() ? 1024 : old.size() * 2, Slot{});
    const std::size_t mask = slots_.size() - 1;
    for (const Slot& s : old) {
      if (s.key1 == 0) continue;
      std::size_t i = mix(s.key1 - 1) & mask;
      while (slots_[i].key1 != 0) i = (i + 1) & mask;
      slots_[i] = s;
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

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

/// Finalized decomposition of one delivered packet.
struct PacketAttr {
  PacketId pkt = kInvalidPacket;
  std::uint8_t net = 0;  ///< 0 = request network, 1 = reply network.
  PacketType type = PacketType::kReadRequest;
  NodeId src = kInvalidNode;
  NodeId dest = kInvalidNode;
  Cycle origin = 0;     ///< First NI accept (of the original incarnation).
  Cycle delivered = 0;  ///< Handed to the sink.
  std::uint64_t stage[kNumAttrStages] = {};

  std::uint64_t e2e() const { return delivered - origin; }
  std::uint64_t stage_sum() const {
    std::uint64_t s = 0;
    for (const std::uint64_t v : stage) s += v;
    return s;
  }
};

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
  int port = -1;               ///< Output port (the link), or the ejection
                               ///< port sentinel given at construction.
  int vc = -1;
  PacketType type = PacketType::kReadRequest;
  std::uint64_t vc_wait = 0;
  std::uint64_t sw_wait = 0;
  std::uint64_t count = 0;  ///< Head flits that departed over this link.
};

class LatencyAttributor {
 public:
  static constexpr Cycle kDefaultWindow = 512;
  static constexpr std::size_t kDefaultPacketCapacity = 1u << 16;

  explicit LatencyAttributor(Cycle window_cycles = kDefaultWindow,
                             std::size_t packet_capacity =
                                 kDefaultPacketCapacity);

  /// Optional fabric graph for node-role labels and dashboard coordinates.
  /// Copied, so reports stay valid after the simulator that attached us
  /// (and the graph it owns) are gone.
  void set_topology(const topo::FabricGraph* graph) {
    has_graph_ = graph != nullptr;
    graph_ = has_graph_ ? *graph : topo::FabricGraph{};
  }
  const topo::FabricGraph* topology() const {
    return has_graph_ ? &graph_ : nullptr;
  }

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

  /// Finalized per-packet decompositions, oldest first (bounded ring:
  /// overwrites the oldest entry past `packet_capacity`).
  std::vector<PacketAttr> packets() const;

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
  /// ranked by cycles descending (deterministic tie-break on the key).
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

  /// Location key: net(1b) | stage(3b) | node(20b) | port+1(8b) | vc+1(8b).
  static std::uint64_t loc_key(std::uint8_t net, AttrStage stage, NodeId node,
                               int port, int vc) {
    return (static_cast<std::uint64_t>(net) << 39) |
           (static_cast<std::uint64_t>(stage) << 36) |
           (static_cast<std::uint64_t>(static_cast<std::uint32_t>(node)) <<
            16) |
           (static_cast<std::uint64_t>(port + 1) << 8) |
           static_cast<std::uint64_t>(vc + 1);
  }
  /// Window-series key: window(24b) | net(1b) | node(20b) | port+1(8b) |
  /// vc+1(8b) | type(2b).
  static std::uint64_t win_key(std::uint32_t window, std::uint8_t net,
                               NodeId node, int port, int vc,
                               PacketType type) {
    return (static_cast<std::uint64_t>(window) << 39) |
           (static_cast<std::uint64_t>(net) << 38) |
           (static_cast<std::uint64_t>(static_cast<std::uint32_t>(node)) <<
            18) |
           (static_cast<std::uint64_t>(port + 1) << 10) |
           (static_cast<std::uint64_t>(vc + 1) << 2) |
           static_cast<std::uint64_t>(type);
  }

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
  /// The window-series cell for `key` in `window`. Writes always land in the
  /// small current-window staging map (hot in cache); when the window
  /// advances, the finished window's cells are flushed to `win_done_` so the
  /// staging map never grows with run length.
  WinSums& win_cell(std::uint32_t window, std::uint64_t key) {
    if (window != win_cur_window_) {
      flush_window();
      win_cur_window_ = window;
    }
    return win_cur_[key];
  }
  void flush_window() {
    win_cur_.for_each([this](std::uint64_t key, const WinSums& w) {
      win_done_.push_back({key, w});
    });
    win_cur_.clear();
  }

  Cycle window_;
  int win_shift_ = -1;  ///< log2(window_) when window_ is a power of two.
  std::size_t packet_capacity_;
  std::vector<Live> live_[2];  ///< Indexed by PacketId (arena slot).
  std::uint64_t inflight_ = 0;
  AttrFlatMap<LocSums> loc_;
  AttrFlatMap<WinSums> win_cur_;  ///< Cells of the window being recorded.
  std::uint32_t win_cur_window_ = 0;
  std::vector<std::pair<std::uint64_t, WinSums>> win_done_;
  // Per-net aggregates over delivered packets (exact e2e partition).
  std::uint64_t stage_totals_[2][kNumAttrStages] = {};
  std::uint64_t e2e_totals_[2] = {};
  std::uint64_t delivered_net_[2] = {};
  /// Event-time cycles attributed per net (delivered or not); bottleneck
  /// shares are fractions of this.
  std::uint64_t attributed_net_[2] = {};
  TypeSums type_sums_[2][4];
  // Finalized-packet ring.
  std::vector<PacketAttr> ring_;
  std::size_t ring_head_ = 0;
  std::size_t ring_size_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t violations_ = 0;
  topo::FabricGraph graph_{};
  bool has_graph_ = false;
};

/// Self-contained HTML dashboard: per-link stage heatmap over the fabric
/// layout with a time slider over the attribution windows plus the top-k
/// bottleneck table. `graph` may be null (falls back to a circular layout).
std::string attr_html_document(const LatencyAttributor& attr,
                               const topo::FabricGraph* graph,
                               std::size_t top_k = 10);

}  // namespace arinoc::obs
