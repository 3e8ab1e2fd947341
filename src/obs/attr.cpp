#include "obs/attr.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <sstream>

#include "obs/regress/json.hpp"
#include "topo/graph.hpp"

namespace arinoc::obs {

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

LatencyAttributor::LatencyAttributor(Cycle window_cycles,
                                     std::size_t packet_capacity)
    : window_(window_cycles == 0 ? kDefaultWindow : window_cycles),
      packet_capacity_(packet_capacity == 0 ? 1 : packet_capacity) {
  ring_.resize(packet_capacity_);
  if ((window_ & (window_ - 1)) == 0) {
    win_shift_ = 0;
    for (Cycle w = window_; w > 1; w >>= 1) ++win_shift_;
  }
}

void LatencyAttributor::add_loc(std::uint8_t net, AttrStage stage,
                                NodeId node, int port, int vc,
                                std::uint64_t cycles) {
  LocSums& s = loc_[loc_key(net, stage, node, port, vc)];
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
  WinSums& w = win_cell(window_index(now),
                        win_key(window_index(now), net, node, out_port,
                                s.pending_vc, s.type));
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
  WinSums& w = win_cell(window_index(now),
                        win_key(window_index(now), net, node, -1,
                                s.pending_vc, s.type));
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

  PacketAttr a;
  a.pkt = id;
  a.net = net;
  a.type = s.type;
  a.src = s.src;
  a.dest = s.node;
  a.origin = s.origin;
  a.delivered = now;
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < kNumAttrStages; ++i) {
    a.stage[i] = s.stage[i];
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

  ring_[ring_head_] = a;
  ring_head_ = ring_head_ + 1 == ring_.size() ? 0 : ring_head_ + 1;
  if (ring_size_ < ring_.size()) ++ring_size_;
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

std::vector<PacketAttr> LatencyAttributor::packets() const {
  std::vector<PacketAttr> out;
  out.reserve(ring_size_);
  const std::size_t start =
      ring_size_ < ring_.size() ? 0 : ring_head_;  // Oldest surviving entry.
  for (std::size_t i = 0; i < ring_size_; ++i) {
    out.push_back(ring_[(start + i) % ring_.size()]);
  }
  return out;
}

std::vector<BottleneckEntry> LatencyAttributor::bottlenecks(
    std::size_t k) const {
  std::vector<std::pair<std::uint64_t, LocSums>> rows;
  rows.reserve(loc_.size());
  loc_.for_each([&rows](std::uint64_t key, const LocSums& sums) {
    rows.push_back({key, sums});
  });
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    if (a.second.cycles != b.second.cycles) {
      return a.second.cycles > b.second.cycles;
    }
    return a.first < b.first;  // Deterministic tie-break on the packed key.
  });
  if (rows.size() > k) rows.resize(k);

  std::vector<BottleneckEntry> out;
  out.reserve(rows.size());
  for (const auto& [key, sums] : rows) {
    BottleneckEntry e;
    e.net = static_cast<std::uint8_t>((key >> 39) & 1);
    e.stage = static_cast<AttrStage>((key >> 36) & 0x7);
    e.node = static_cast<NodeId>((key >> 16) & 0xFFFFF);
    e.port = static_cast<int>((key >> 8) & 0xFF) - 1;
    e.vc = static_cast<int>(key & 0xFF) - 1;
    e.cycles = sums.cycles;
    e.count = sums.count;
    e.share = attributed_net_[e.net] == 0
                  ? 0.0
                  : static_cast<double>(sums.cycles) /
                        static_cast<double>(attributed_net_[e.net]);
    out.push_back(e);
  }
  return out;
}

std::vector<AttrWindowCell> LatencyAttributor::window_series() const {
  std::vector<std::pair<std::uint64_t, WinSums>> rows = win_done_;
  rows.reserve(rows.size() + win_cur_.size());
  win_cur_.for_each([&rows](std::uint64_t key, const WinSums& sums) {
    rows.push_back({key, sums});
  });
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  // Merge duplicate keys (a window that reappeared after being flushed).
  std::size_t w_out = 0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (w_out > 0 && rows[w_out - 1].first == rows[i].first) {
      rows[w_out - 1].second.vc_wait += rows[i].second.vc_wait;
      rows[w_out - 1].second.sw_wait += rows[i].second.sw_wait;
      rows[w_out - 1].second.count += rows[i].second.count;
    } else {
      rows[w_out++] = rows[i];
    }
  }
  rows.resize(w_out);
  std::vector<AttrWindowCell> out;
  out.reserve(rows.size());
  for (const auto& [key, w] : rows) {
    AttrWindowCell c;
    c.window = static_cast<std::uint32_t>(key >> 39);
    c.net = static_cast<std::uint8_t>((key >> 38) & 1);
    c.node = static_cast<NodeId>((key >> 18) & 0xFFFFF);
    c.port = static_cast<int>((key >> 10) & 0xFF) - 1;
    c.vc = static_cast<int>((key >> 2) & 0xFF) - 1;
    c.type = static_cast<PacketType>(key & 0x3);
    c.vc_wait = w.vc_wait;
    c.sw_wait = w.sw_wait;
    c.count = w.count;
    out.push_back(c);
  }
  return out;
}

std::string LatencyAttributor::node_label(std::uint8_t net,
                                          NodeId node) const {
  (void)net;
  if (node == kInvalidNode) return "?";
  if (has_graph_ && node >= 0 && node < graph_.num_nodes()) {
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
  os << (e.net == 0 ? "request" : "reply") << " "
     << attr_stage_name(e.stage) << " at " << node_label(e.net, e.node);
  if (e.port >= 0) {
    // Resolve the link's downstream endpoint when the graph is available.
    NodeId dst = kInvalidNode;
    if (has_graph_) {
      for (const topo::GraphLink& l : graph_.links) {
        if (l.src == e.node && l.src_port == e.port) {
          dst = l.dst;
          break;
        }
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

namespace {

std::string fmt_double(double v) {
  char buf[64];
  if (v == static_cast<double>(static_cast<long long>(v)) &&
      v < 1e15 && v > -1e15) {
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof buf, "%.6g", v);
  }
  return buf;
}

}  // namespace

std::string LatencyAttributor::to_json(std::size_t top_k) const {
  std::ostringstream os;
  os << "{\n  \"schema\": \"arinoc-attr-v1\",\n  \"window_cycles\": "
     << window_ << ",\n  \"stages\": [";
  for (std::size_t i = 0; i < kNumAttrStages; ++i) {
    os << (i ? ", " : "") << '"'
       << attr_stage_name(static_cast<AttrStage>(i)) << '"';
  }
  os << "],\n  \"conservation\": {\"delivered\": " << delivered_
     << ", \"violations\": " << violations_ << ", \"dropped\": " << dropped_
     << ", \"inflight\": " << inflight() << "},\n  \"nets\": [\n";
  for (std::uint8_t net = 0; net < 2; ++net) {
    os << "    {\"net\": \"" << (net == 0 ? "request" : "reply")
       << "\", \"delivered\": " << delivered_net_[net]
       << ", \"e2e_cycles\": " << e2e_totals_[net]
       << ", \"stage_totals\": {";
    for (std::size_t i = 0; i < kNumAttrStages; ++i) {
      os << (i ? ", " : "") << '"'
         << attr_stage_name(static_cast<AttrStage>(i))
         << "\": " << stage_totals_[net][i];
    }
    os << "}, \"by_type\": [";
    bool first = true;
    for (std::size_t t = 0; t < 4; ++t) {
      const TypeSums& ts = type_sums_[net][t];
      if (ts.delivered == 0) continue;
      if (!first) os << ", ";
      first = false;
      os << "{\"type\": \"" << packet_type_name(static_cast<PacketType>(t))
         << "\", \"delivered\": " << ts.delivered
         << ", \"e2e_cycles\": " << ts.e2e << ", \"mean_e2e\": "
         << fmt_double(static_cast<double>(ts.e2e) /
                       static_cast<double>(ts.delivered))
         << ", \"stages\": {";
      for (std::size_t i = 0; i < kNumAttrStages; ++i) {
        os << (i ? ", " : "") << '"'
           << attr_stage_name(static_cast<AttrStage>(i))
           << "\": " << ts.stage[i];
      }
      os << "}}";
    }
    os << "]}" << (net == 0 ? ",\n" : "\n");
  }
  os << "  ],\n  \"bottlenecks\": [\n";
  const std::vector<BottleneckEntry> top = bottlenecks(top_k);
  for (std::size_t i = 0; i < top.size(); ++i) {
    const BottleneckEntry& e = top[i];
    os << "    {\"rank\": " << (i + 1) << ", \"net\": \""
       << (e.net == 0 ? "request" : "reply") << "\", \"stage\": \""
       << attr_stage_name(e.stage) << "\", \"node\": " << e.node
       << ", \"port\": " << e.port << ", \"vc\": " << e.vc
       << ", \"cycles\": " << e.cycles << ", \"count\": " << e.count
       << ", \"share\": " << fmt_double(e.share) << ", \"label\": \""
       << regress::json_escape(entry_label(e)) << "\"}"
       << (i + 1 < top.size() ? ",\n" : "\n");
  }
  os << "  ],\n  \"series\": [\n";
  const std::vector<AttrWindowCell> series = window_series();
  for (std::size_t i = 0; i < series.size(); ++i) {
    const AttrWindowCell& c = series[i];
    os << "    {\"window\": " << c.window << ", \"net\": "
       << static_cast<int>(c.net) << ", \"node\": " << c.node
       << ", \"port\": " << c.port << ", \"vc\": " << c.vc
       << ", \"type\": \"" << packet_type_name(c.type)
       << "\", \"vc_wait\": " << c.vc_wait << ", \"sw_wait\": " << c.sw_wait
       << ", \"count\": " << c.count << "}"
       << (i + 1 < series.size() ? ",\n" : "\n");
  }
  os << "  ]\n}\n";
  return os.str();
}

void LatencyAttributor::clear() {
  live_[0].clear();
  live_[1].clear();
  inflight_ = 0;
  loc_.clear();
  win_cur_.clear();
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
  ring_head_ = 0;
  ring_size_ = 0;
  delivered_ = 0;
  dropped_ = 0;
  violations_ = 0;
}

}  // namespace arinoc::obs
