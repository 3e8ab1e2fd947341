#include "obs/sampler.hpp"

#include "obs/regress/json.hpp"

namespace arinoc::obs {

using regress::JsonWriter;
using regress::NumFormat;

namespace {

void write_sample(JsonWriter& w, const TelemetrySample& s) {
  const auto g6 = [&w](const char* key, double v) {
    w.raw(key).num(v, NumFormat::kG6);
  };
  w.raw("{\"cycle\":").num(s.cycle).raw(",\"window\":").num(s.window);
  g6(",\"ipc\":", s.ipc);
  g6(",\"request_inject_rate\":", s.request_inject_rate);
  g6(",\"request_deliver_rate\":", s.request_deliver_rate);
  g6(",\"reply_inject_rate\":", s.reply_inject_rate);
  g6(",\"reply_deliver_rate\":", s.reply_deliver_rate);
  g6(",\"request_link_util\":", s.request_link_util);
  g6(",\"reply_link_util\":", s.reply_link_util);
  g6(",\"ni_occupancy_pkts\":", s.ni_occupancy_pkts);
  w.raw(",\"buffered_flits\":").num(s.buffered_flits);
  g6(",\"mc_stall_rate\":", s.mc_stall_rate);
  w.raw(",\"live_packets\":").num(s.live_packets);
  w.raw(",\"retransmits\":").num(s.retransmits);
  w.raw(",\"flits_corrupted\":").num(s.flits_corrupted);
  w.raw(",\"degrade_state\":").num(s.degrade_state);
  w.raw(",\"requests_shed\":").num(s.requests_shed);
  w.raw(",\"pre_trip_warnings\":").num(s.pre_trip_warnings).raw("}");
}

}  // namespace

void TelemetrySampler::write_jsonl(JsonWriter& w) const {
  for (const TelemetrySample& s : samples_) {
    write_sample(w, s);
    w.raw("\n");
  }
}

std::string TelemetrySampler::to_jsonl() const {
  std::string out;
  JsonWriter w(out);
  write_jsonl(w);
  return out;
}

std::string TelemetrySampler::last_jsonl() const {
  std::string out;
  if (samples_.empty()) return out;
  JsonWriter w(out);
  write_sample(w, samples_.back());
  return out;
}

}  // namespace arinoc::obs
