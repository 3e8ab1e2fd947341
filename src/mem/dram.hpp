// GDDR5 timing model with FR-FCFS scheduling (Table I).
//
// Runs in the memory clock domain (1.75 GHz vs the 1 GHz NoC clock; the MC
// crosses domains with a ClockRatio ticker). Per-bank row-buffer state
// machines respect tRP/tRC/tRRD/tRAS/tRCD/tCL; a shared data bus serializes
// bursts. The scheduler is First-Ready FCFS: ready row-buffer hits first,
// then the oldest request whose bank can accept an activate.
#pragma once

#include <cassert>
#include <cstdint>
#include <deque>
#include <vector>

#include "common/types.hpp"
#include "mem/txn.hpp"

namespace arinoc {

struct DramTimings {
  std::uint32_t t_rp = 12;
  std::uint32_t t_rc = 40;
  std::uint32_t t_rrd = 6;
  std::uint32_t t_ras = 28;
  std::uint32_t t_rcd = 12;
  std::uint32_t t_cl = 12;
  std::uint32_t burst = 4;  ///< Data-bus cycles per access.
  /// FR-FCFS anti-starvation: once the oldest request has waited this many
  /// memory cycles, scheduling falls back to strict oldest-first until it
  /// issues (row hits stop bypassing it).
  std::uint32_t starvation_cap = 256;
};

struct DramRequest {
  TxnId txn = 0;
  std::uint32_t bank = 0;
  std::uint64_t row = 0;
  bool write = false;
  std::uint64_t order = 0;      ///< FCFS age.
  std::uint64_t enqueued = 0;   ///< Memory cycle of arrival (starvation).
};

struct DramCompletion {
  TxnId txn = 0;
  bool write = false;
};

class GddrDram {
 public:
  GddrDram(std::uint32_t num_banks, const DramTimings& timings,
           std::uint32_t queue_capacity);

  bool can_enqueue() const { return queue_.size() < queue_capacity_; }
  void enqueue(const DramRequest& req);

  /// Advances one *memory* cycle. If `output_blocked`, reads may not be
  /// issued (the MC reply stage is full) but writes still drain.
  void tick(bool output_blocked);

  /// Completions since the last clear_completed() (in completion order),
  /// read in place; clearing keeps the capacity for the next burst.
  const std::vector<DramCompletion>& completed() const { return completed_; }
  void clear_completed() { completed_.clear(); }

  /// True when tick() would only advance the clock: nothing queued, nothing
  /// in service, nothing awaiting drain. The activity layer may then skip
  /// ticks and replay them with advance_idle().
  bool fully_idle() const {
    return queue_.empty() && in_service_.empty() && completed_.empty();
  }
  /// Replays `ticks` idle memory cycles at once. Exactly equivalent to that
  /// many tick() calls while fully_idle(): each such tick only increments
  /// the clock (the retire loop scans an empty vector and the scheduler
  /// returns before touching any bank or bus state).
  void advance_idle(std::uint64_t ticks) {
    assert(fully_idle());
    now_ += ticks;
  }

  std::size_t queue_depth() const { return queue_.size(); }

  // Stats (for energy model and row-locality diagnostics).
  std::uint64_t activates() const { return activates_; }
  std::uint64_t row_hits() const { return row_hits_; }
  std::uint64_t accesses() const { return accesses_; }
  double row_hit_rate() const {
    return accesses_ ? static_cast<double>(row_hits_) /
                           static_cast<double>(accesses_)
                     : 0.0;
  }
  void reset_stats() {
    activates_ = 0;
    row_hits_ = 0;
    accesses_ = 0;
  }

 private:
  struct Bank {
    bool open = false;
    std::uint64_t open_row = 0;
    std::uint64_t act_at = 0;       ///< Memory cycle of the last ACT.
    std::uint64_t busy_until = 0;   ///< Bank unavailable before this.
  };

  /// Attempts to issue `req` now; returns true and fills `complete_at` when
  /// the command sequence was started.
  bool try_issue(const DramRequest& req, std::uint64_t* complete_at);

  std::vector<Bank> banks_;
  DramTimings t_;
  std::uint32_t queue_capacity_;
  std::deque<DramRequest> queue_;
  std::uint64_t now_ = 0;           ///< Memory-domain cycle.
  std::uint64_t bus_free_at_ = 0;
  std::uint64_t last_act_any_ = 0;
  std::uint64_t order_counter_ = 0;

  struct Pending {
    std::uint64_t complete_at;
    DramCompletion completion;
  };
  std::vector<Pending> in_service_;
  std::vector<DramCompletion> completed_;

  std::uint64_t activates_ = 0;
  std::uint64_t row_hits_ = 0;
  std::uint64_t accesses_ = 0;
};

}  // namespace arinoc
