#include "obs/sampler.hpp"

#include <cstdio>
#include <sstream>

namespace arinoc::obs {

namespace {

std::string sample_json(const TelemetrySample& s) {
  char buf[640];
  std::snprintf(
      buf, sizeof(buf),
      "{\"cycle\":%llu,\"window\":%llu,\"ipc\":%.6g,"
      "\"request_inject_rate\":%.6g,\"request_deliver_rate\":%.6g,"
      "\"reply_inject_rate\":%.6g,\"reply_deliver_rate\":%.6g,"
      "\"request_link_util\":%.6g,\"reply_link_util\":%.6g,"
      "\"ni_occupancy_pkts\":%.6g,\"buffered_flits\":%llu,"
      "\"mc_stall_rate\":%.6g,\"live_packets\":%llu,"
      "\"retransmits\":%llu,\"flits_corrupted\":%llu,"
      "\"degrade_state\":%d,\"requests_shed\":%llu,"
      "\"pre_trip_warnings\":%llu}",
      static_cast<unsigned long long>(s.cycle),
      static_cast<unsigned long long>(s.window), s.ipc,
      s.request_inject_rate, s.request_deliver_rate, s.reply_inject_rate,
      s.reply_deliver_rate, s.request_link_util, s.reply_link_util,
      s.ni_occupancy_pkts, static_cast<unsigned long long>(s.buffered_flits),
      s.mc_stall_rate, static_cast<unsigned long long>(s.live_packets),
      static_cast<unsigned long long>(s.retransmits),
      static_cast<unsigned long long>(s.flits_corrupted), s.degrade_state,
      static_cast<unsigned long long>(s.requests_shed),
      static_cast<unsigned long long>(s.pre_trip_warnings));
  return buf;
}

}  // namespace

std::string TelemetrySampler::to_jsonl() const {
  std::ostringstream os;
  for (const TelemetrySample& s : samples_) os << sample_json(s) << "\n";
  return os.str();
}

std::string TelemetrySampler::last_jsonl() const {
  if (samples_.empty()) return "";
  return sample_json(samples_.back());
}

}  // namespace arinoc::obs
