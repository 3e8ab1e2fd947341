#include "obs/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <unordered_map>

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
  const std::vector<TraceEvent> evs = events();
  std::ostringstream os;
  os << "{\"traceEvents\":[";
  const char* sep = "";
  auto emit = [&](const std::string& obj) {
    os << sep << "\n" << obj;
    sep = ",";
  };
  char buf[256];
  // Process metadata: one "process" per network keeps Perfetto's track
  // grouping readable (tid = mesh node).
  for (int net = 0; net < 2; ++net) {
    std::snprintf(buf, sizeof(buf),
                  "{\"ph\":\"M\",\"pid\":%d,\"name\":\"process_name\","
                  "\"args\":{\"name\":\"%s network\"}}",
                  net, net_name(static_cast<std::uint8_t>(net)));
    emit(buf);
  }
  std::unordered_map<std::uint64_t, Span> spans;
  for (const TraceEvent& e : evs) {
    const std::uint64_t key = span_key(e.net, e.pkt);
    switch (e.kind) {
      case TraceEventKind::kNiEnqueue:
        spans[key] = Span{e.cycle, e.node};
        break;
      case TraceEventKind::kDeliver:
      case TraceEventKind::kDrop: {
        auto it = spans.find(key);
        if (it != spans.end()) {
          const Span& s = it->second;
          std::snprintf(
              buf, sizeof(buf),
              "{\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\"ts\":%llu,"
              "\"dur\":%llu,\"name\":\"%s\",\"cat\":\"packet\","
              "\"args\":{\"pkt\":%u,\"dest\":%d,\"outcome\":\"%s\"}}",
              static_cast<int>(e.net), static_cast<int>(s.src),
              static_cast<unsigned long long>(s.enqueue),
              static_cast<unsigned long long>(e.cycle - s.enqueue),
              packet_type_name(static_cast<PacketType>(e.type)),
              static_cast<unsigned>(e.pkt), static_cast<int>(e.node),
              trace_event_kind_name(e.kind));
          emit(buf);
          spans.erase(it);
        }
        break;
      }
      case TraceEventKind::kLinkHop:
      case TraceEventKind::kCorrupt:
      case TraceEventKind::kRetransmit: {
        std::snprintf(
            buf, sizeof(buf),
            "{\"ph\":\"i\",\"pid\":%d,\"tid\":%d,\"ts\":%llu,\"s\":\"t\","
            "\"name\":\"%s\",\"cat\":\"%s\","
            "\"args\":{\"pkt\":%u,\"aux\":%d}}",
            static_cast<int>(e.net), static_cast<int>(e.node),
            static_cast<unsigned long long>(e.cycle),
            trace_event_kind_name(e.kind),
            packet_type_name(static_cast<PacketType>(e.type)),
            static_cast<unsigned>(e.pkt), static_cast<int>(e.aux));
        emit(buf);
        break;
      }
      case TraceEventKind::kVcAlloc:
      case TraceEventKind::kInject:
      case TraceEventKind::kEject:
        break;  // Not worth a viewer row each.
    }
  }
  os << "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{"
     << "\"recorded\":" << recorded_ << ",\"dropped\":" << dropped_ << "}}";
  return os.str();
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
