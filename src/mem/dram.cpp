#include "mem/dram.hpp"

#include <algorithm>
#include <cassert>

namespace arinoc {

GddrDram::GddrDram(std::uint32_t num_banks, const DramTimings& timings,
                   std::uint32_t queue_capacity)
    : banks_(num_banks), t_(timings), queue_capacity_(queue_capacity) {
  // Start the internal clock beyond every timing horizon so the zero-valued
  // per-bank timestamps read as "long in the past" (no cold-start stall).
  now_ = t_.t_rc + t_.t_ras + t_.t_rp + t_.t_rrd;
}

void GddrDram::enqueue(const DramRequest& req) {
  assert(can_enqueue());
  DramRequest r = req;
  r.order = order_counter_++;
  r.enqueued = now_;
  queue_.push_back(r);
}

bool GddrDram::try_issue(const DramRequest& req, std::uint64_t* complete_at) {
  Bank& bank = banks_[req.bank];
  if (bank.busy_until > now_) return false;

  if (bank.open && bank.open_row == req.row) {
    // Row-buffer hit: column access; queues for the shared data bus
    // (a future bus slot is a private reservation — unlike a future ACT it
    // cannot stall other banks).
    const std::uint64_t data_start = std::max(now_, bus_free_at_);
    bus_free_at_ = data_start + t_.burst;
    bank.busy_until = data_start + t_.burst;
    *complete_at = data_start + t_.t_cl + t_.burst;
    ++row_hits_;
    ++accesses_;
    return true;
  }

  // Row miss: the (PRE+)ACT command must be legal *this* cycle — issuing
  // an ACT into the future would stall the whole channel behind one hot
  // bank (tRRD is a channel-global constraint).
  std::uint64_t act_ready = std::max(bank.act_at + t_.t_rc,
                                     last_act_any_ + t_.t_rrd);
  if (bank.open) {
    const std::uint64_t pre_ready = bank.act_at + t_.t_ras;
    act_ready = std::max(act_ready, pre_ready + t_.t_rp);
  }
  if (act_ready > now_) return false;
  const std::uint64_t data_start = std::max(now_ + t_.t_rcd, bus_free_at_);

  bank.open = true;
  bank.open_row = req.row;
  bank.act_at = now_;
  last_act_any_ = now_;
  ++activates_;
  ++accesses_;
  bus_free_at_ = data_start + t_.burst;
  bank.busy_until = data_start + t_.burst;
  *complete_at = data_start + t_.t_cl + t_.burst;
  return true;
}

void GddrDram::tick(bool output_blocked) {
  ++now_;
  // Retire finished accesses.
  for (std::size_t i = 0; i < in_service_.size();) {
    if (in_service_[i].complete_at <= now_) {
      completed_.push_back(in_service_[i].completion);
      in_service_[i] = in_service_.back();
      in_service_.pop_back();
    } else {
      ++i;
    }
  }
  if (queue_.empty()) return;

  // FR-FCFS, one command sequence started per memory cycle:
  // pass 1 — oldest-first among ready row hits; pass 2 — oldest request
  // whose activate can legally issue now.
  auto issuable = [&](const DramRequest& r) {
    return !(output_blocked && !r.write);
  };
  auto try_pick = [&](bool hits_only) -> bool {
    for (std::size_t i = 0; i < queue_.size(); ++i) {
      const DramRequest& r = queue_[i];
      if (!issuable(r)) continue;
      const Bank& b = banks_[r.bank];
      const bool is_hit = b.open && b.open_row == r.row;
      if (hits_only && !is_hit) continue;
      std::uint64_t complete_at = 0;
      if (try_issue(r, &complete_at)) {
        in_service_.push_back({complete_at, {r.txn, r.write}});
        queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(i));
        return true;
      }
    }
    return false;
  };
  // Anti-starvation: once the oldest request has aged past the cap, stop
  // letting younger row hits bypass it (strict oldest-first until it goes).
  const bool starving =
      t_.starvation_cap > 0 &&
      now_ - queue_.front().enqueued > t_.starvation_cap;
  if (starving) {
    try_pick(/*hits_only=*/false);
    return;
  }
  if (!try_pick(/*hits_only=*/true)) {
    try_pick(/*hits_only=*/false);
  }
}

}  // namespace arinoc
