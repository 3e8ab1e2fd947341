#include "obs/attr.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <sstream>

#include "obs/regress/json.hpp"
#include "topo/fabric.hpp"
#include "topo/graph.hpp"

namespace arinoc::obs {

namespace {

const char* net_name(std::uint8_t net) {
  return net == 0 ? "request" : "reply";
}

}  // namespace

const char* attr_stage_name(AttrStage s) {
  switch (s) {
    case AttrStage::kNiQueue: return "ni_queue";
    case AttrStage::kVcWait: return "vc_wait";
    case AttrStage::kSwWait: return "sw_wait";
    case AttrStage::kLink: return "link";
    case AttrStage::kEject: return "eject";
    case AttrStage::kRetx: return "retx";
  }
  return "?";
}

LatencyAttributor::LatencyAttributor(Cycle window_cycles)
    : window_(window_cycles == 0 ? kDefaultWindow : window_cycles) {
  if ((window_ & (window_ - 1)) == 0) {
    win_shift_ = 0;
    for (Cycle w = window_; w > 1; w >>= 1) ++win_shift_;
  }
}

void LatencyAttributor::set_topology(const topo::Fabric& fabric,
                                     std::uint32_t num_vcs) {
  graph_ = fabric.graph();
  const auto nodes = static_cast<std::size_t>(fabric.nodes());
  const auto ports = static_cast<std::size_t>(fabric.local_port()) + 2;
  const std::size_t vcs = std::size_t{num_vcs} + 1;
  if (nodes == nodes_ && ports == ports_ && vcs == vcs_) return;
  nodes_ = nodes;
  ports_ = ports;
  vcs_ = vcs;
  loc_.assign(2 * kNumAttrStages * nodes_ * ports_ * vcs_, LocSums{});
  win_cur_.assign(2 * nodes_ * ports_ * vcs_ * kNumPacketTypes, WinSums{});
}

LatencyAttributor::Site LatencyAttributor::site_of(std::size_t index) const {
  Site s;
  s.vc = static_cast<int>(index % vcs_) - 1;
  index /= vcs_;
  s.port = static_cast<int>(index % ports_) - 1;
  index /= ports_;
  s.node = static_cast<NodeId>(index % nodes_);
  s.outer = index / nodes_;
  return s;
}

void LatencyAttributor::add_loc(std::uint8_t net, AttrStage stage,
                                NodeId node, int port, int vc,
                                std::uint64_t cycles) {
  LocSums& s = loc_[site_index(
      net * kNumAttrStages + static_cast<std::size_t>(stage), node, port, vc)];
  s.cycles += cycles;
  ++s.count;
  attributed_net_[net] += cycles;
}

void LatencyAttributor::on_ni_enqueue(std::uint8_t net, PacketId id,
                                      PacketType type, NodeId node,
                                      Cycle now) {
  std::vector<Live>& v = live_[net];
  if (id >= v.size()) v.resize(static_cast<std::size_t>(id) + 64);
  Live& s = v[id];
  if (!s.active) ++inflight_;
  s = Live{};
  s.active = true;
  s.origin = now;
  s.last = now;
  s.src = node;
  s.node = node;
  s.type = type;
}

void LatencyAttributor::on_retransmit(std::uint8_t net, PacketId id,
                                      Cycle first_accept, Cycle now) {
  Live* sp = find_live(net, id);
  if (sp == nullptr) return;
  Live& s = *sp;
  // The original incarnation was accepted at first_accept; everything up to
  // this re-acceptance — flight, drop, NACK/timeout, backoff — is recovery
  // overhead. Re-basing the origin keeps the sum telescoping to the true
  // end-to-end latency since the first attempt.
  const std::uint64_t overhead = now - first_accept;
  s.origin = first_accept;
  s.stage[static_cast<std::size_t>(AttrStage::kRetx)] += overhead;
  add_loc(net, AttrStage::kRetx, s.src, -1, -1, overhead);
}

void LatencyAttributor::on_inject(std::uint8_t net, PacketId id, NodeId node,
                                  Cycle now) {
  Live* sp = find_live(net, id);
  if (sp == nullptr) return;
  Live& s = *sp;
  const std::uint64_t d = now - s.last;
  s.stage[static_cast<std::size_t>(AttrStage::kNiQueue)] += d;
  add_loc(net, AttrStage::kNiQueue, node, -1, -1, d);
  s.last = now;
  s.node = node;
  s.hop_vc_wait = 0;
  s.pending_port = -1;
  s.pending_vc = -1;
}

void LatencyAttributor::on_head_arrive(std::uint8_t net, PacketId id,
                                       NodeId node, Cycle now) {
  Live* sp = find_live(net, id);
  if (sp == nullptr) return;
  Live& s = *sp;
  const std::uint64_t d = now - s.last;
  s.stage[static_cast<std::size_t>(AttrStage::kLink)] += d;
  // The wire the head just crossed is the (upstream node, output port) pair
  // granted at the previous router.
  add_loc(net, AttrStage::kLink, s.node, s.pending_port, s.pending_vc, d);
  s.last = now;
  s.node = node;
  s.hop_vc_wait = 0;
  s.pending_port = -1;
  s.pending_vc = -1;
}

void LatencyAttributor::on_vc_alloc(std::uint8_t net, PacketId id,
                                    NodeId node, int out_port, int out_vc,
                                    Cycle now) {
  Live* sp = find_live(net, id);
  if (sp == nullptr) return;
  Live& s = *sp;
  const std::uint64_t d = now - s.last;
  s.stage[static_cast<std::size_t>(AttrStage::kVcWait)] += d;
  s.hop_vc_wait = d;
  s.pending_port = out_port;
  s.pending_vc = out_vc;
  add_loc(net, AttrStage::kVcWait, node, out_port, out_vc, d);
  s.last = now;
}

void LatencyAttributor::on_link_depart(std::uint8_t net, PacketId id,
                                       NodeId node, int out_port, Cycle now) {
  Live* sp = find_live(net, id);
  if (sp == nullptr) return;
  Live& s = *sp;
  const std::uint64_t d = now - s.last;
  s.stage[static_cast<std::size_t>(AttrStage::kSwWait)] += d;
  add_loc(net, AttrStage::kSwWait, node, out_port, s.pending_vc, d);
  WinSums& w = win_cell(window_index(now), net, node, out_port,
                        s.pending_vc, s.type);
  w.vc_wait += s.hop_vc_wait;
  w.sw_wait += d;
  ++w.count;
  s.last = now;
}

void LatencyAttributor::on_eject_start(std::uint8_t net, PacketId id,
                                       NodeId node, Cycle now) {
  Live* sp = find_live(net, id);
  if (sp == nullptr) return;
  Live& s = *sp;
  const std::uint64_t d = now - s.last;
  s.stage[static_cast<std::size_t>(AttrStage::kSwWait)] += d;
  // port -1 marks the ejection output (it is not a link).
  add_loc(net, AttrStage::kSwWait, node, -1, -1, d);
  WinSums& w = win_cell(window_index(now), net, node, -1, s.pending_vc,
                        s.type);
  w.vc_wait += s.hop_vc_wait;
  w.sw_wait += d;
  ++w.count;
  s.last = now;
  s.node = node;
}

void LatencyAttributor::on_deliver(std::uint8_t net, PacketId id, Cycle now) {
  Live* sp = find_live(net, id);
  if (sp == nullptr) return;
  Live& s = *sp;
  const std::uint64_t d = now - s.last;
  s.stage[static_cast<std::size_t>(AttrStage::kEject)] += d;
  add_loc(net, AttrStage::kEject, s.node, -1, -1, d);

  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < kNumAttrStages; ++i) {
    sum += s.stage[i];
    stage_totals_[net][i] += s.stage[i];
  }
  if (sum != now - s.origin) ++violations_;
  e2e_totals_[net] += now - s.origin;
  ++delivered_net_[net];
  ++delivered_;
  TypeSums& t = type_sums_[net][static_cast<std::size_t>(s.type)];
  ++t.delivered;
  t.e2e += now - s.origin;
  for (std::size_t i = 0; i < kNumAttrStages; ++i) t.stage[i] += s.stage[i];
  s.active = false;
  --inflight_;
}

void LatencyAttributor::on_drop(std::uint8_t net, PacketId id, Cycle now) {
  (void)now;
  Live* sp = find_live(net, id);
  if (sp == nullptr) return;
  ++dropped_;
  sp->active = false;
  --inflight_;
}

std::vector<BottleneckEntry> LatencyAttributor::bottlenecks(
    std::size_t k) const {
  std::vector<BottleneckEntry> out;
  for (std::size_t i = 0; i < loc_.size(); ++i) {
    const LocSums& sums = loc_[i];
    if (sums.count == 0) continue;
    const Site site = site_of(i);
    BottleneckEntry e;
    e.net = static_cast<std::uint8_t>(site.outer / kNumAttrStages);
    e.stage = static_cast<AttrStage>(site.outer % kNumAttrStages);
    e.node = site.node;
    e.port = site.port;
    e.vc = site.vc;
    e.cycles = sums.cycles;
    e.count = sums.count;
    e.share = attributed_net_[e.net] == 0
                  ? 0.0
                  : static_cast<double>(sums.cycles) /
                        static_cast<double>(attributed_net_[e.net]);
    out.push_back(e);
  }
  // Table order breaks ties, which keeps the ranking deterministic.
  std::stable_sort(out.begin(), out.end(),
                   [](const BottleneckEntry& a, const BottleneckEntry& b) {
                     return a.cycles > b.cycles;
                   });
  if (out.size() > k) out.resize(k);
  return out;
}

template <typename F>
void LatencyAttributor::for_each_current_cell(F&& f) const {
  for (std::size_t i = 0; i < win_cur_.size(); ++i) {
    const WinSums& w = win_cur_[i];
    if (w.count == 0) continue;
    const Site site = site_of(i / kNumPacketTypes);
    AttrWindowCell c;
    c.window = win_cur_window_;
    c.net = static_cast<std::uint8_t>(site.outer);
    c.node = site.node;
    c.port = site.port;
    c.vc = site.vc;
    c.type = static_cast<PacketType>(i % kNumPacketTypes);
    c.vc_wait = w.vc_wait;
    c.sw_wait = w.sw_wait;
    c.count = w.count;
    f(c);
  }
}

void LatencyAttributor::flush_window(std::uint32_t next_window) {
  // Windows only move forward between clear()s, so the flushed windows stay
  // in (window, table index) order and window_series() needs no sort.
  assert(next_window > win_cur_window_);
  for_each_current_cell(
      [this](const AttrWindowCell& c) { win_done_.push_back(c); });
  std::fill(win_cur_.begin(), win_cur_.end(), WinSums{});
  win_cur_window_ = next_window;
}

std::vector<AttrWindowCell> LatencyAttributor::window_series() const {
  std::vector<AttrWindowCell> out = win_done_;
  for_each_current_cell([&out](const AttrWindowCell& c) {
    out.push_back(c);
  });
  return out;
}

std::string LatencyAttributor::node_label(std::uint8_t net,
                                          NodeId node) const {
  (void)net;
  if (node == kInvalidNode) return "?";
  if (node >= 0 && node < graph_.num_nodes()) {
    const topo::NodeRole r = graph_.roles[static_cast<std::size_t>(node)];
    const char* prefix = r == topo::NodeRole::kMC
                             ? "mc"
                             : (r == topo::NodeRole::kCC ? "cc" : "rtr");
    return prefix + std::to_string(node);
  }
  return "node" + std::to_string(node);
}

std::string LatencyAttributor::entry_label(const BottleneckEntry& e) const {
  std::ostringstream os;
  os << net_name(e.net) << " "
     << attr_stage_name(e.stage) << " at " << node_label(e.net, e.node);
  if (e.port >= 0) {
    // Resolve the link's downstream endpoint when the graph is available.
    NodeId dst = kInvalidNode;
    for (const topo::GraphLink& l : graph_.links) {
      if (l.src == e.node && l.src_port == e.port) {
        dst = l.dst;
        break;
      }
    }
    if (dst != kInvalidNode) {
      os << "->" << node_label(e.net, dst);
    } else {
      os << " port" << e.port;
    }
  }
  if (e.vc >= 0) os << " vc" << e.vc;
  return os.str();
}

std::string LatencyAttributor::top_label() const {
  const std::vector<BottleneckEntry> top = bottlenecks(1);
  if (top.empty() || top[0].cycles == 0) return {};
  char pct[32];
  std::snprintf(pct, sizeof pct, " %.1f%%", top[0].share * 100.0);
  return entry_label(top[0]) + pct;
}

void LatencyAttributor::write_json(regress::JsonWriter& w,
                                   std::size_t top_k) const {
  using regress::NumFormat;
  const auto stages = [&w](const std::uint64_t (&cycles)[kNumAttrStages]) {
    for (std::size_t i = 0; i < kNumAttrStages; ++i) {
      w.raw(i ? ", " : "{").str(attr_stage_name(static_cast<AttrStage>(i)));
      w.raw(": ").num(cycles[i]);
    }
    w.raw("}");
  };
  w.raw("{\n  \"schema\": \"arinoc-attr-v1\",\n  \"window_cycles\": ");
  w.num(window_).raw(",\n  \"stages\": [");
  for (std::size_t i = 0; i < kNumAttrStages; ++i) {
    w.raw(i ? ", " : "").str(attr_stage_name(static_cast<AttrStage>(i)));
  }
  w.raw("],\n  \"conservation\": {\"delivered\": ").num(delivered_);
  w.raw(", \"violations\": ").num(violations_);
  w.raw(", \"dropped\": ").num(dropped_);
  w.raw(", \"inflight\": ").num(inflight()).raw("},\n  \"nets\": [\n");
  for (std::uint8_t net = 0; net < 2; ++net) {
    w.raw("    {\"net\": ").str(net_name(net));
    w.raw(", \"delivered\": ").num(delivered_net_[net]);
    w.raw(", \"e2e_cycles\": ").num(e2e_totals_[net]);
    w.raw(", \"stage_totals\": ");
    stages(stage_totals_[net]);
    w.raw(", \"by_type\": [");
    const char* sep = "";
    for (std::size_t t = 0; t < kNumPacketTypes; ++t) {
      const TypeSums& ts = type_sums_[net][t];
      if (ts.delivered == 0) continue;
      w.raw(sep).raw("{\"type\": ");
      w.str(packet_type_name(static_cast<PacketType>(t)));
      w.raw(", \"delivered\": ").num(ts.delivered);
      w.raw(", \"e2e_cycles\": ").num(ts.e2e).raw(", \"mean_e2e\": ");
      w.num(static_cast<double>(ts.e2e) / static_cast<double>(ts.delivered),
            NumFormat::kIntOrG6);
      w.raw(", \"stages\": ");
      stages(ts.stage);
      w.raw("}");
      sep = ", ";
    }
    w.raw(net == 0 ? "]},\n" : "]}\n");
  }
  w.raw("  ],\n  \"bottlenecks\": [\n");
  const std::vector<BottleneckEntry> top = bottlenecks(top_k);
  for (std::size_t i = 0; i < top.size(); ++i) {
    const BottleneckEntry& e = top[i];
    w.raw("    {\"rank\": ").num(i + 1);
    w.raw(", \"net\": ").str(net_name(e.net));
    w.raw(", \"stage\": ").str(attr_stage_name(e.stage));
    w.raw(", \"node\": ").num(e.node).raw(", \"port\": ").num(e.port);
    w.raw(", \"vc\": ").num(e.vc).raw(", \"cycles\": ").num(e.cycles);
    w.raw(", \"count\": ").num(e.count).raw(", \"share\": ");
    w.num(e.share, NumFormat::kIntOrG6).raw(", \"label\": ");
    w.str(entry_label(e)).raw(i + 1 < top.size() ? "},\n" : "}\n");
  }
  // The series streams in place: flushed windows, then the current one.
  w.raw("  ],\n  \"series\": [\n");
  const char* sep = "";
  const auto cell = [&w, &sep](const AttrWindowCell& c) {
    w.raw(sep).raw("    {\"window\": ").num(c.window);
    w.raw(", \"net\": ").num(c.net).raw(", \"node\": ").num(c.node);
    w.raw(", \"port\": ").num(c.port).raw(", \"vc\": ").num(c.vc);
    w.raw(", \"type\": ").str(packet_type_name(c.type));
    w.raw(", \"vc_wait\": ").num(c.vc_wait);
    w.raw(", \"sw_wait\": ").num(c.sw_wait);
    w.raw(", \"count\": ").num(c.count).raw("}");
    sep = ",\n";
  };
  for (const AttrWindowCell& c : win_done_) cell(c);
  for_each_current_cell(cell);
  w.raw(*sep != '\0' ? "\n  ]\n}\n" : "  ]\n}\n");
}

std::string LatencyAttributor::to_json(std::size_t top_k) const {
  // One allocation: a series line is about 125 bytes, and the head and the
  // bottlenecks fit in a few KiB. Pages reserved but never written cost no
  // resident memory, so the estimate errs high.
  std::size_t cells = win_done_.size();
  for_each_current_cell([&cells](const AttrWindowCell&) { ++cells; });
  std::string out;
  out.reserve(4096 + 256 * top_k + 160 * cells);
  regress::JsonWriter w(out);
  write_json(w, top_k);
  return out;
}

void LatencyAttributor::clear() {
  live_[0].clear();
  live_[1].clear();
  inflight_ = 0;
  std::fill(loc_.begin(), loc_.end(), LocSums{});
  std::fill(win_cur_.begin(), win_cur_.end(), WinSums{});
  win_cur_window_ = 0;
  win_done_.clear();
  for (std::uint8_t net = 0; net < 2; ++net) {
    for (std::size_t i = 0; i < kNumAttrStages; ++i) {
      stage_totals_[net][i] = 0;
    }
    e2e_totals_[net] = 0;
    delivered_net_[net] = 0;
    attributed_net_[net] = 0;
    for (auto& t : type_sums_[net]) t = TypeSums{};
  }
  delivered_ = 0;
  dropped_ = 0;
  violations_ = 0;
}

}  // namespace arinoc::obs
