#include "gpu/core.hpp"

#include <cassert>

#include "gpu/coalescer.hpp"

namespace arinoc {

namespace {
constexpr std::size_t kOutQueueCap = 16;
}

SimtCore::SimtCore(const Config& cfg, std::uint32_t core_id, NodeId node,
                   InstrSource* source, TxnPool* txns, const AddressMap* amap,
                   const std::vector<NodeId>* mc_nodes,
                   RequestPort* request_port)
    : cfg_(cfg),
      core_id_(core_id),
      node_(node),
      source_(source),
      txns_(txns),
      amap_(amap),
      mc_nodes_(mc_nodes),
      request_port_(request_port),
      warps_(cfg.warps_per_core),
      scheduler_(SchedPolicy::kGreedyThenOldest, cfg.warps_per_core),
      l1_(cfg.l1_size_bytes, cfg.l1_assoc, cfg.line_bytes),
      mshr_(cfg.mshr_entries, cfg.mshr_merges) {
  for (std::uint32_t w = 0; w < cfg.warps_per_core; ++w) warps_[w].id = w;
}

void SimtCore::drain_requests(Cycle now) {
  if (out_q_.empty()) return;
  const OutRequest& head = out_q_.front();
  if (request_port_->try_send_request(head.write, head.txn, head.dest, now)) {
    out_q_.pop_front();
    ++requests_sent_;
  }
}

bool SimtCore::execute_mem(Warp& warp, Cycle now) {
  Instr& instr = warp.staged;
  for (std::uint8_t i = 0; i < instr.num_lines; ++i) {
    const Addr line = instr.lines[i];
    const NodeId dest = (*mc_nodes_)[amap_->mc_of(line)];
    if (instr.is_store) {
      // Write-through, no-allocate, posted: traffic without a scoreboard
      // dependency (GPU stores do not stall the warp).
      const TxnId txn = txns_->create(
          {line, node_, dest, /*write=*/true, core_id_, now, line});
      out_q_.push_back({txn, true, dest});
      continue;
    }
    if (!cfg_.l1_bypass && l1_.access(line)) continue;  // L1 hit.
    // Cross-warp merging off (WarpPool ablation): salt the MSHR key so
    // each warp's miss travels the network independently.
    const Addr key = cfg_.cross_warp_merge
                         ? line
                         : (line | (static_cast<Addr>(warp.id) + 1) << 48);
    switch (mshr_.lookup(key, warp.id)) {
      case Mshr::Outcome::kNewMiss: {
        const TxnId txn = txns_->create(
            {line, node_, dest, /*write=*/false, core_id_, now, key});
        out_q_.push_back({txn, false, dest});
        ++warp.outstanding_loads;
        break;
      }
      case Mshr::Outcome::kMerged:
        ++warp.outstanding_loads;
        break;
      case Mshr::Outcome::kFull:
        // Merge slots exhausted for this line: the fill in flight will
        // bring the line to L1; treat as a hit-under-miss (documented
        // simplification — rare with 8 merge slots).
        break;
    }
  }
  return true;
}

void SimtCore::cycle(Cycle now) {
  ++steps_;
  sync_idle(now);  // Replay slept stall cycles; a zero gap in always-on mode.
  next_cycle_ = now + 1;
  can_sleep_ = false;

  drain_requests(now);

  if (now < issue_free_at_) return;  // Warp draining through the SIMD lanes.

  // CTA barriers: a warp at an epoch boundary waits until every warp of
  // its CTA has reached that boundary (__syncthreads() rhythm).
  std::vector<std::uint64_t> cta_min_epoch;
  if (cfg_.barrier_interval > 0) {
    const std::uint32_t per_cta = std::max(1u, cfg_.warps_per_cta);
    cta_min_epoch.assign((warps_.size() + per_cta - 1) / per_cta,
                         ~std::uint64_t{0});
    for (const Warp& w : warps_) {
      const std::uint64_t epoch =
          w.instructions_issued / cfg_.barrier_interval;
      std::uint64_t& slot = cta_min_epoch[w.id / per_cta];
      slot = std::min(slot, epoch);
    }
  }
  auto barrier_blocked = [&](const Warp& w) {
    if (cfg_.barrier_interval == 0) return false;
    const std::uint32_t per_cta = std::max(1u, cfg_.warps_per_cta);
    return w.instructions_issued / cfg_.barrier_interval >
           cta_min_epoch[w.id / per_cta];
  };

  // Stage the next instruction of every unblocked warp and compute
  // eligibility (scoreboard + structural resources).
  std::vector<bool> eligible(warps_.size(), false);
  bool any = false;
  for (Warp& w : warps_) {
    if (w.blocked() || barrier_blocked(w)) continue;
    if (!w.has_staged) {
      w.staged = source_->next(core_id_, w.id);
      if (w.staged.is_mem) coalesce(&w.staged);
      w.has_staged = true;
    }
    if (w.staged.is_mem) {
      if (out_q_.size() + w.staged.num_lines > kOutQueueCap) continue;
      if (!w.staged.is_store) {
        if (mshr_.used_entries() + w.staged.num_lines > mshr_.capacity()) {
          continue;
        }
        if (w.outstanding_loads + w.staged.num_lines >
            cfg_.max_pending_loads) {
          continue;
        }
      }
    }
    eligible[w.id] = true;
    any = true;
  }
  if (!any) {
    ++issue_stalls_;
    // Only warp-unblocking events (replies via deliver) can change this
    // outcome, and only if no request is waiting on NI backpressure —
    // staging already happened for every unblocked warp, so re-running this
    // cycle with unchanged state is pure stall counting.
    can_sleep_ = out_q_.empty();
    return;
  }

  const int pick = scheduler_.pick(warps_, eligible);
  assert(pick >= 0);
  Warp& warp = warps_[static_cast<std::size_t>(pick)];
  if (warp.staged.is_mem) execute_mem(warp, now);
  warp.has_staged = false;
  warp.last_issue = now;
  ++warp.instructions_issued;
  ++instructions_;
  scheduler_.issued(static_cast<std::uint32_t>(pick));
  // A 32-thread warp occupies the 8-wide SIMD front-end for 4 cycles.
  issue_free_at_ = now + cfg_.warp_size / cfg_.simd_width;
}

void SimtCore::deliver(const Packet& pkt, Cycle /*now*/) {
  if (act_set_) act_set_->wake(act_idx_);
  const TxnId txn = pkt.txn;
  if (pkt.type == PacketType::kReadReply) {
    const MemTxn& t = txns_->at(txn);
    if (!cfg_.l1_bypass) l1_.fill(t.line);
    for (std::uint32_t warp_id : mshr_.fill(t.mshr_key)) {
      assert(warps_[warp_id].outstanding_loads > 0);
      --warps_[warp_id].outstanding_loads;
    }
  } else {
    assert(pkt.type == PacketType::kWriteReply);
  }
  txns_->retire(txn);
}

void SimtCore::reset_stats() {
  instructions_ = 0;
  requests_sent_ = 0;
  issue_stalls_ = 0;
  l1_.reset_stats();
  for (Warp& w : warps_) w.instructions_issued = 0;
}

}  // namespace arinoc
