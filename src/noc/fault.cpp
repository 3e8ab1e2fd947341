#include "noc/fault.hpp"

#include <algorithm>
#include <sstream>

#include "noc/network.hpp"
#include "noc/ni.hpp"
#include "obs/sink.hpp"

namespace arinoc {

FaultParams fault_params_from(const Config& cfg) {
  FaultParams p;
  p.corrupt_rate = cfg.fault_corrupt_rate;
  p.link_stall_rate = cfg.fault_link_stall_rate;
  p.link_stall_len = cfg.fault_link_stall_len;
  p.port_fail_rate = cfg.fault_port_fail_rate;
  p.credit_loss_rate = cfg.fault_credit_loss_rate;
  p.seed = cfg.fault_seed;
  p.enable_mask = cfg.fault_enable_mask;
  p.recovery = cfg.fault_recovery;
  p.rtx_timeout = cfg.rtx_timeout;
  p.rtx_max_retries = cfg.rtx_max_retries;
  return p;
}

// ------------------------------------------------------------ FaultInjector

FaultInjector::FaultInjector(const FaultParams& params,
                             const topo::Fabric* fabric)
    : p_(params),
      fabric_(fabric),
      max_ports_(static_cast<std::size_t>(fabric->max_ports())),
      rng_(params.seed),
      links_(static_cast<std::size_t>(fabric->nodes()) * max_ports_) {
  // Fixed draw order over existing links: (node, port) ascending. The RNG is
  // consumed in exactly this order every cycle, which is what makes the
  // schedule independent of traffic.
  for (NodeId n = 0; n < static_cast<NodeId>(fabric->nodes()); ++n) {
    for (int dir = 0; dir < static_cast<int>(max_ports_); ++dir) {
      if (fabric->neighbor(n, dir) == kInvalidNode) continue;
      const std::size_t idx = static_cast<std::size_t>(n) * max_ports_ +
                              static_cast<std::size_t>(dir);
      links_[idx].exists = true;
      link_order_.push_back(idx);
    }
  }
}

void FaultInjector::mix_digest(std::uint32_t kind, Cycle cycle,
                               std::size_t link_index) {
  auto mix = [this](std::uint64_t v) {
    digest_ ^= v;
    digest_ *= 0x100000001b3ull;  // FNV prime.
  };
  mix(kind);
  mix(cycle);
  mix(link_index);
}

void FaultInjector::begin_cycle(Cycle now) {
  now_ = now;
  changed_.clear();
  for (const std::size_t idx : link_order_) {
    LinkState& l = links_[idx];
    l.corrupt_now = false;
    l.drop_credit_now = false;
    // Draw order per link is fixed: corrupt, stall, port-fail, credit-loss.
    if (p_.corrupt_on() && rng_.chance(p_.corrupt_rate)) {
      l.corrupt_now = true;
      ++counters_.corrupt_windows;
      mix_digest(kFaultCorrupt, now, idx);
    }
    if (p_.stall_on() && !l.failed && l.stalled_until <= now &&
        rng_.chance(p_.link_stall_rate)) {
      l.stalled_until = now + p_.link_stall_len;
      ++counters_.stall_events;
      mix_digest(kFaultLinkStall, now, idx);
    }
    if (p_.port_fail_on() && !l.failed && rng_.chance(p_.port_fail_rate)) {
      l.failed = true;
      ++counters_.port_failures;
      mix_digest(kFaultPortFail, now, idx);
    }
    if (p_.credit_loss_on() && rng_.chance(p_.credit_loss_rate)) {
      l.drop_credit_now = true;
      mix_digest(kFaultCreditLoss, now, idx);
    }
    // Diff against the state the routers last saw, not a recomputation at
    // the current cycle: a stall whose window expires exactly now would
    // otherwise read as "was already unblocked" and the unblock transition
    // would never be pushed, leaving the link blocked forever.
    const bool blocked = l.failed || l.stalled_until > now;
    if (blocked != l.blocked_reported) {
      l.blocked_reported = blocked;
      changed_.emplace_back(static_cast<NodeId>(idx / max_ports_),
                            static_cast<int>(idx % max_ports_));
    }
  }
}

std::string FaultInjector::describe_blocked() const {
  std::ostringstream os;
  for (const std::size_t idx : link_order_) {
    const LinkState& l = links_[idx];
    if (!l.failed && l.stalled_until <= now_) continue;
    const NodeId n = static_cast<NodeId>(idx / max_ports_);
    const int dir = static_cast<int>(idx % max_ports_);
    os << "    link " << n << "->" << fabric_->neighbor(n, dir) << " ("
       << fabric_->port_name(dir) << "): "
       << (l.failed ? "failed permanently"
                    : "stalled until cycle " + std::to_string(l.stalled_until))
       << "\n";
  }
  return os.str();
}

// -------------------------------------------------------- RetransmitTracker

RetransmitTracker::RetransmitTracker(const FaultParams& params, Network* net,
                                     const topo::Fabric* fabric,
                                     std::uint32_t link_latency)
    : p_(params), net_(net), fabric_(fabric), link_latency_(link_latency) {}

void RetransmitTracker::register_ni(NodeId node, InjectNi* ni) {
  nis_[node] = ni;
}

Cycle RetransmitTracker::ack_latency(NodeId src, NodeId dest) const {
  // Out-of-band single-flit ACK/NACK channel: hop-proportional wire delay
  // plus a small CRC/notification overhead. Contention-free by design (the
  // sideband carries one bit per packet, not payload).
  return static_cast<Cycle>(fabric_->hops(src, dest)) * link_latency_ + 2;
}

void RetransmitTracker::on_accept(PacketId id, Cycle now) {
  Packet& pkt = net_->arena().at(id);
  if (pkt.rtx == 0) {
    // Fresh packet: open a retransmission-buffer entry holding everything
    // needed to re-create it.
    const std::uint64_t key = next_key_++;
    pkt.rtx = key;
    Entry e;
    e.type = pkt.type;
    e.src = pkt.src;
    e.dest = pkt.dest;
    e.priority = pkt.priority;
    e.txn = pkt.txn;
    e.cur = id;
    e.created = now;
    e.deadline = now + p_.rtx_timeout;
    entries_.emplace(key, e);
    return;
  }
  // Re-injection accepted: arm the next (exponentially backed-off) timeout.
  auto it = entries_.find(pkt.rtx);
  if (it == entries_.end()) return;  // Entry raced to lost; orphan delivery.
  Entry& e = it->second;
  e.cur = id;
  ++e.retries;
  e.want_retx = false;
  const std::uint32_t shift = std::min<std::uint32_t>(e.retries, 6);
  e.deadline = now + (p_.rtx_timeout << shift);
  ++retransmitted_;
  retransmitted_flits_ += pkt.num_flits;
}

RxOutcome RetransmitTracker::classify_rx(PacketId id, bool corrupted,
                                         Cycle now) {
  const Packet& pkt = net_->arena().at(id);
  if (pkt.rtx == 0) return corrupted ? RxOutcome::kCorrupt : RxOutcome::kDeliver;
  auto it = entries_.find(pkt.rtx);
  if (it == entries_.end()) {
    // Entry already retired (acked or given up): late duplicate.
    ++duplicates_;
    return RxOutcome::kDuplicate;
  }
  Entry& e = it->second;
  if (e.cur != id) {
    // A newer incarnation is in flight; this is the superseded copy.
    ++duplicates_;
    return RxOutcome::kStale;
  }
  if (e.ack_at != 0) {
    ++duplicates_;
    return RxOutcome::kDuplicate;
  }
  if (corrupted) {
    // NACK: the source learns after the reverse-trip latency and
    // immediately re-injects (the timeout path picks it up then).
    e.deadline = now + ack_latency(e.src, e.dest);
    return RxOutcome::kCorrupt;
  }
  e.ack_at = now + ack_latency(e.src, e.dest);
  return RxOutcome::kDeliver;
}

void RetransmitTracker::try_reinject(std::uint64_t key, Entry& e, Cycle now) {
  auto ni_it = nis_.find(e.src);
  if (ni_it == nis_.end()) return;
  const PacketId id =
      net_->make_packet(e.type, e.src, e.dest, e.priority, e.txn, now);
  net_->arena().at(id).rtx = key;
  if (!ni_it->second->try_accept(id, now)) {
    net_->abandon_packet(id);  // NI full; retry next cycle.
    return;
  }
  if (const obs::PacketSink* sink = net_->sink()) {
    // finish_accept already opened the new incarnation's span at `now`; the
    // attributor re-bases it to the first incarnation's accept and books the
    // recovery gap as retransmission overhead.
    sink->retransmit(id, e.type, e.src, static_cast<int>(e.retries),
                     e.created, now);
  }
}

void RetransmitTracker::step(Cycle now) {
  for (auto it = entries_.begin(); it != entries_.end();) {
    Entry& e = it->second;
    if (e.ack_at != 0) {
      if (now >= e.ack_at) {
        if (e.retries > 0) ++recovered_;
        it = entries_.erase(it);
        continue;
      }
      ++it;
      continue;
    }
    if (e.want_retx || now >= e.deadline) {
      if (e.retries >= p_.rtx_max_retries) {
        ++lost_;
        it = entries_.erase(it);
        continue;
      }
      e.want_retx = true;
      try_reinject(it->first, e, now);
    }
    ++it;
  }
}

Cycle RetransmitTracker::oldest_pending_created(Cycle fallback) const {
  Cycle oldest = fallback;
  bool found = false;
  for (const auto& [key, e] : entries_) {
    (void)key;
    if (e.ack_at != 0) continue;  // Delivered; ACK merely in flight.
    if (!found || e.created < oldest) {
      oldest = e.created;
      found = true;
    }
  }
  return oldest;
}

void RetransmitTracker::reset_counters() {
  retransmitted_ = 0;
  retransmitted_flits_ = 0;
  recovered_ = 0;
  lost_ = 0;
  duplicates_ = 0;
}

}  // namespace arinoc
