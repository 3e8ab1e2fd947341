#include "obs/trace.hpp"

#include <algorithm>
#include <sstream>
#include <unordered_map>

#include "obs/regress/json.hpp"

namespace arinoc::obs {

const char* trace_event_kind_name(TraceEventKind k) {
  switch (k) {
    case TraceEventKind::kNiEnqueue:  return "NiEnqueue";
    case TraceEventKind::kVcAlloc:    return "VcAlloc";
    case TraceEventKind::kInject:     return "Inject";
    case TraceEventKind::kLinkHop:    return "LinkHop";
    case TraceEventKind::kEject:      return "Eject";
    case TraceEventKind::kDeliver:    return "Deliver";
    case TraceEventKind::kDrop:       return "Drop";
    case TraceEventKind::kRetransmit: return "Retransmit";
    case TraceEventKind::kCorrupt:    return "Corrupt";
  }
  return "?";
}

namespace {

const char* net_name(std::uint8_t net) { return net == 0 ? "request" : "reply"; }

/// Per-(net, packet-id) open span while scanning the event stream. Packet
/// ids recycle, so a fresh kNiEnqueue restarts the span.
struct Span {
  Cycle enqueue = 0;
  NodeId src = kInvalidNode;
};

std::uint64_t span_key(std::uint8_t net, PacketId pkt) {
  return (static_cast<std::uint64_t>(net) << 32) | pkt;
}

}  // namespace

PacketTracer::PacketTracer(std::size_t capacity)
    : ring_(std::max<std::size_t>(capacity, 16)) {}

std::vector<TraceEvent> PacketTracer::events() const {
  std::vector<TraceEvent> out;
  out.reserve(size_);
  const std::size_t start = (head_ + ring_.size() - size_) % ring_.size();
  for (std::size_t i = 0; i < size_; ++i) {
    out.push_back(ring_[(start + i) % ring_.size()]);
  }
  return out;
}

void PacketTracer::clear() {
  head_ = 0;
  size_ = 0;
  recorded_ = 0;
  dropped_ = 0;
}

std::string PacketTracer::to_chrome_json() const {
  std::string out;
  regress::JsonWriter w(out);
  w.raw("{\"traceEvents\":[");
  // Process metadata: one "process" per network keeps Perfetto's track
  // grouping readable (tid = mesh node).
  for (std::uint8_t net = 0; net < 2; ++net) {
    w.raw(net == 0 ? "\n" : ",\n").raw("{\"ph\":\"M\",\"pid\":").num(net);
    w.raw(",\"name\":\"process_name\",\"args\":{\"name\":\"");
    w.raw(net_name(net)).raw(" network\"}}");
  }
  std::unordered_map<std::uint64_t, Span> spans;
  for (const TraceEvent& e : events()) {
    const std::uint64_t key = span_key(e.net, e.pkt);
    const char* type = packet_type_name(static_cast<PacketType>(e.type));
    switch (e.kind) {
      case TraceEventKind::kNiEnqueue:
        spans[key] = Span{e.cycle, e.node};
        break;
      case TraceEventKind::kDeliver:
      case TraceEventKind::kDrop: {
        auto it = spans.find(key);
        if (it == spans.end()) break;
        const Span& s = it->second;
        w.raw(",\n{\"ph\":\"X\",\"pid\":").num(e.net).raw(",\"tid\":");
        w.num(s.src).raw(",\"ts\":").num(s.enqueue).raw(",\"dur\":");
        w.num(e.cycle - s.enqueue).raw(",\"name\":\"").raw(type);
        w.raw("\",\"cat\":\"packet\",\"args\":{\"pkt\":").num(e.pkt);
        w.raw(",\"dest\":").num(e.node).raw(",\"outcome\":\"");
        w.raw(trace_event_kind_name(e.kind)).raw("\"}}");
        spans.erase(it);
        break;
      }
      case TraceEventKind::kLinkHop:
      case TraceEventKind::kCorrupt:
      case TraceEventKind::kRetransmit:
        w.raw(",\n{\"ph\":\"i\",\"pid\":").num(e.net).raw(",\"tid\":");
        w.num(e.node).raw(",\"ts\":").num(e.cycle);
        w.raw(",\"s\":\"t\",\"name\":\"").raw(trace_event_kind_name(e.kind));
        w.raw("\",\"cat\":\"").raw(type).raw("\",\"args\":{\"pkt\":");
        w.num(e.pkt).raw(",\"aux\":").num(e.aux).raw("}}");
        break;
      case TraceEventKind::kVcAlloc:
      case TraceEventKind::kInject:
      case TraceEventKind::kEject:
        break;  // Not worth a viewer row each.
    }
  }
  w.raw("\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"recorded\":");
  w.num(recorded_).raw(",\"dropped\":").num(dropped_).raw("}}");
  return out;
}

std::string PacketTracer::tail_text(std::size_t n) const {
  const std::vector<TraceEvent> evs = events();
  const std::size_t start = evs.size() > n ? evs.size() - n : 0;
  std::ostringstream os;
  for (std::size_t i = start; i < evs.size(); ++i) {
    const TraceEvent& e = evs[i];
    os << "  cycle " << e.cycle << " " << net_name(e.net) << " pkt " << e.pkt
       << " " << packet_type_name(static_cast<PacketType>(e.type)) << " "
       << trace_event_kind_name(e.kind) << " node " << e.node;
    if (e.aux >= 0) os << " aux " << e.aux;
    os << "\n";
  }
  return os.str();
}

}  // namespace arinoc::obs
