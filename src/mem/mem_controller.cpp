#include "mem/mem_controller.hpp"

#include <cassert>

namespace arinoc {

MemController::MemController(const Config& cfg, NodeId node, TxnPool* txns,
                             const AddressMap* amap, ReplyPort* reply)
    : cfg_(cfg),
      node_(node),
      txns_(txns),
      amap_(amap),
      reply_(reply),
      l2_(cfg.l2_size_bytes, cfg.l2_assoc, cfg.line_bytes),
      dram_(cfg.dram_banks,
            DramTimings{cfg.t_rp, cfg.t_rc, cfg.t_rrd, cfg.t_ras, cfg.t_rcd,
                        cfg.t_cl, cfg.burst_cycles, cfg.dram_starvation_cap},
            cfg.dram_queue_depth),
      mem_clock_(cfg.mem_clock_ratio) {}

void MemController::deliver(const Packet& pkt, Cycle /*now*/) {
  assert(!is_reply(pkt.type) && "MC received a reply packet");
  if (act_set_) act_set_->wake(act_idx_);
  request_q_.push_back(pkt.txn);
}

void MemController::sync_idle(Cycle now) {
  if (now <= next_cycle_) return;
  const Cycle gap = now - next_cycle_;
  // While can_sleep() holds, every skipped cycle would have sampled three
  // empty queues and ticked an idle DRAM: replay exactly that. stall_cycles_
  // cannot accrue (the reply stage is empty) and the L2/reply pipelines
  // cannot move (nothing is in them).
  req_q_occ_.add_zeros(gap);
  dram_q_occ_.add_zeros(gap);
  reply_occ_.add_zeros(gap);
  dram_.advance_idle(mem_clock_.ticks_for(gap));
  next_cycle_ = now;
}

void MemController::push_reply(PacketType type, TxnId txn) {
  reply_stage_.push_back({type, txn});
}

void MemController::handle_l2_op(const L2Op& op) {
  const MemTxn& txn = txns_->at(op.txn);
  ++requests_served_;
  if (op.write) {
    // Write-through with posted acknowledgement: the short write-reply is
    // generated as soon as the L2 bank accepts the data; the DRAM write
    // drains in the background and only consumes bandwidth.
    l2_.access(txn.line);  // Tag update for statistics.
    l2_.fill(txn.line);
    push_reply(PacketType::kWriteReply, op.txn);
    if (dram_.can_enqueue()) {
      dram_.enqueue({op.txn, amap_->bank_of(txn.line), amap_->row_of(txn.line),
                     /*write=*/true, 0});
    }
    return;
  }
  if (l2_.access(txn.line)) {
    push_reply(PacketType::kReadReply, op.txn);
    return;
  }
  // Read miss: merge with an outstanding fill of the same line, or start a
  // new DRAM read.
  auto it = pending_reads_.find(txn.line);
  if (it != pending_reads_.end()) {
    it->second.push_back(op.txn);
    return;
  }
  pending_reads_.emplace(txn.line, std::vector<TxnId>{op.txn});
  dram_.enqueue({op.txn, amap_->bank_of(txn.line), amap_->row_of(txn.line),
                 /*write=*/false, 0});
}

void MemController::cycle(Cycle now) {
  ++steps_;
  sync_idle(now);  // Replay slept cycles; a zero gap in always-on mode.
  next_cycle_ = now + 1;

  // 1) Forward ready reply data to the NI over the wide intra-tile link
  //    (one data per cycle, §4.1). A blocked head is the Fig. 12 stall.
  if (!reply_stage_.empty()) {
    const StagedReply& head = reply_stage_.front();
    const MemTxn& txn = txns_->at(head.txn);
    if (reply_->try_send_reply(head.type, head.txn, txn.src_cc, now)) {
      reply_stage_.pop_front();
    } else {
      ++stall_cycles_;
    }
  }

  const bool reply_blocked = reply_stage_.size() >= cfg_.mc_reply_stage;

  // 2) L2 bank pipeline (one operation completes per cycle).
  if (!l2_pipe_.empty() && l2_pipe_.front().ready_at <= now) {
    const L2Op op = l2_pipe_.front();
    // A read miss needs a DRAM queue slot; a hit/write needs reply-stage
    // room. If neither can proceed the pipe head stalls (backpressure).
    const bool is_read = !op.write;
    const bool would_miss = is_read && !l2_.contains(txns_->at(op.txn).line);
    const bool needs_dram =
        op.write || (would_miss &&
                     pending_reads_.count(txns_->at(op.txn).line) == 0);
    if ((needs_dram && !dram_.can_enqueue()) ||
        (!would_miss && reply_blocked)) {
      // Stalled this cycle.
    } else {
      l2_pipe_.pop_front();
      handle_l2_op(op);
    }
  }

  // 3) Admit one request from the ejection queue into the L2 pipeline.
  if (!request_q_.empty() &&
      l2_pipe_.size() < static_cast<std::size_t>(cfg_.l2_latency) + 1) {
    const TxnId id = request_q_.front();
    request_q_.pop_front();
    l2_pipe_.push_back({id, txns_->at(id).write, now + cfg_.l2_latency});
  }

  req_q_occ_.add(static_cast<double>(request_q_.size()));
  dram_q_occ_.add(static_cast<double>(dram_.queue_depth()));
  reply_occ_.add(static_cast<double>(reply_stage_.size()));

  // 4) Tick DRAM in its own clock domain.
  const std::uint32_t ticks = mem_clock_.ticks_this_cycle();
  for (std::uint32_t t = 0; t < ticks; ++t) {
    dram_.tick(reply_blocked);
  }
  for (const DramCompletion& c : dram_.completed()) {
    if (c.write) continue;  // Posted writes were acknowledged already.
    const Addr line = txns_->at(c.txn).line;
    l2_.fill(line);
    auto it = pending_reads_.find(line);
    assert(it != pending_reads_.end());
    for (TxnId waiting : it->second) {
      push_reply(PacketType::kReadReply, waiting);
    }
    pending_reads_.erase(it);
  }
  dram_.clear_completed();
}

void MemController::reset_stats() {
  stall_cycles_ = 0;
  requests_served_ = 0;
  l2_.reset_stats();
  dram_.reset_stats();
  req_q_occ_.reset();
  dram_q_occ_.reset();
  reply_occ_.reset();
}

}  // namespace arinoc
