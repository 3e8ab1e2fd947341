// GDDR5 timing model and FR-FCFS scheduling invariants.
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "mem/dram.hpp"

namespace arinoc {
namespace {

/// The completions since the last call, in completion order.
std::vector<DramCompletion> drain(GddrDram& d) {
  std::vector<DramCompletion> out = d.completed();
  d.clear_completed();
  return out;
}

DramTimings table1_timings() {
  return DramTimings{12, 40, 6, 28, 12, 12, 4};
}

/// Runs the DRAM until a completion appears; returns (txn, tick).
std::pair<TxnId, std::uint64_t> run_until_completion(GddrDram& d,
                                                     std::uint64_t limit) {
  for (std::uint64_t t = 0; t < limit; ++t) {
    d.tick(false);
    const auto done = drain(d);
    if (!done.empty()) return {done[0].txn, t + 1};
  }
  return {~TxnId{0}, 0};
}

TEST(Dram, ClosedBankAccessLatency) {
  GddrDram d(16, table1_timings(), 8);
  d.enqueue({1, 0, 5, false, 0});
  const auto [txn, t] = run_until_completion(d, 200);
  EXPECT_EQ(txn, 1u);
  // ACT + tRCD + tCL + burst = 1 + 12 + 12 + 4 = 29 ticks.
  EXPECT_EQ(t, 29u);
}

TEST(Dram, RowHitIsFasterThanConflict) {
  GddrDram d(16, table1_timings(), 8);
  d.enqueue({1, 0, 5, false, 0});
  auto [txn1, t1] = run_until_completion(d, 200);
  ASSERT_EQ(txn1, 1u);
  // Same row: hit.
  d.enqueue({2, 0, 5, false, 0});
  auto [txn2, t2] = run_until_completion(d, 200);
  ASSERT_EQ(txn2, 2u);
  // Different row, same bank: conflict pays tRAS/tRP/tRCD.
  d.enqueue({3, 0, 9, false, 0});
  auto [txn3, t3] = run_until_completion(d, 200);
  ASSERT_EQ(txn3, 3u);
  EXPECT_LT(t2, t3);
  EXPECT_EQ(d.row_hits(), 1u);
  EXPECT_EQ(d.accesses(), 3u);
  EXPECT_EQ(d.activates(), 2u);
}

TEST(Dram, FrFcfsPrefersReadyRowHit) {
  GddrDram d(16, table1_timings(), 8);
  // Open row 5 on bank 0.
  d.enqueue({1, 0, 5, false, 0});
  run_until_completion(d, 200);
  // Older conflict (row 9) then younger hit (row 5): FR-FCFS services the
  // hit first.
  d.enqueue({2, 0, 9, false, 0});
  d.enqueue({3, 0, 5, false, 0});
  const auto [first, t] = run_until_completion(d, 400);
  (void)t;
  EXPECT_EQ(first, 3u);
}

TEST(Dram, BankParallelismBeatsSingleBank) {
  // 4 random-row requests to 4 different banks complete much sooner than 4
  // to the same bank.
  auto drain_time = [](bool same_bank) {
    GddrDram d(16, table1_timings(), 8);
    for (TxnId i = 0; i < 4; ++i) {
      d.enqueue({i, same_bank ? 0u : static_cast<std::uint32_t>(i),
                 100 + i * 7, false, 0});
    }
    std::uint64_t done = 0, t = 0;
    while (done < 4 && t < 2000) {
      d.tick(false);
      done += drain(d).size();
      ++t;
    }
    return t;
  };
  EXPECT_LT(drain_time(false), drain_time(true));
}

TEST(Dram, TrrdLimitsActivateRate) {
  // Saturating random-row traffic: activates per tick can never exceed
  // 1/tRRD on average.
  GddrDram d(16, table1_timings(), 32);
  Xoshiro256 rng(3);
  TxnId id = 0;
  std::uint64_t ticks = 5000;
  for (std::uint64_t t = 0; t < ticks; ++t) {
    while (d.can_enqueue()) {
      d.enqueue({id++, static_cast<std::uint32_t>(rng.next_below(16)),
                 rng.next_below(5000), false, 0});
    }
    d.tick(false);
    drain(d);
  }
  const double act_rate = static_cast<double>(d.activates()) / ticks;
  EXPECT_LE(act_rate, 1.0 / table1_timings().t_rrd + 0.01);
  EXPECT_GT(act_rate, 0.5 / table1_timings().t_rrd);  // But not crippled.
}

TEST(Dram, BusLimitsStreamingThroughput) {
  // Perfectly streaming (all row hits after the first): throughput is
  // bounded by the burst occupancy of the shared data bus.
  GddrDram d(16, table1_timings(), 32);
  TxnId id = 0;
  std::uint64_t row_seq = 0;
  int per_row = 0;
  std::uint64_t completed = 0;
  const std::uint64_t ticks = 4000;
  for (std::uint64_t t = 0; t < ticks; ++t) {
    while (d.can_enqueue()) {
      d.enqueue({id++, static_cast<std::uint32_t>(row_seq % 16),
                 row_seq / 16, false, 0});
      if (++per_row == 32) {
        per_row = 0;
        ++row_seq;
      }
    }
    d.tick(false);
    completed += drain(d).size();
  }
  const double rate = static_cast<double>(completed) / ticks;
  EXPECT_LE(rate, 1.0 / table1_timings().burst + 0.01);
  EXPECT_GT(rate, 0.8 / table1_timings().burst);  // Bus well utilized.
  EXPECT_GT(d.row_hit_rate(), 0.9);
}

TEST(Dram, OutputBlockedStopsReadsNotWrites) {
  GddrDram d(16, table1_timings(), 8);
  d.enqueue({1, 0, 5, false, 0});  // Read.
  d.enqueue({2, 1, 6, true, 0});   // Write.
  std::uint64_t done_reads = 0, done_writes = 0;
  for (std::uint64_t t = 0; t < 100; ++t) {
    d.tick(/*output_blocked=*/true);
    for (const auto& c : drain(d)) {
      if (c.write) {
        ++done_writes;
      } else {
        ++done_reads;
      }
    }
  }
  EXPECT_EQ(done_reads, 0u);  // Reads held while the reply path is full.
  EXPECT_EQ(done_writes, 1u);
  // Unblock: the read proceeds.
  for (std::uint64_t t = 0; t < 100 && done_reads == 0; ++t) {
    d.tick(false);
    for (const auto& c : drain(d)) {
      if (!c.write) ++done_reads;
    }
  }
  EXPECT_EQ(done_reads, 1u);
}

TEST(Dram, StarvationCapForcesOldestFirst) {
  // A steady stream of row hits to bank 0 must not starve a conflicting
  // request (row 9) forever: after starvation_cap cycles, oldest-first
  // kicks in and the conflict is serviced.
  DramTimings t = table1_timings();
  t.starvation_cap = 64;
  GddrDram d(16, t, 32);
  d.enqueue({1, 0, 5, false, 0});
  run_until_completion(d, 200);  // Opens row 5.
  d.enqueue({2, 0, 9, false, 0});  // The conflict.
  bool conflict_done = false;
  TxnId next_hit = 100;
  for (std::uint64_t tick = 0; tick < 2000 && !conflict_done; ++tick) {
    if (d.can_enqueue()) d.enqueue({next_hit++, 0, 5, false, 0});
    d.tick(false);
    for (const auto& c : drain(d)) {
      if (c.txn == 2) conflict_done = true;
    }
  }
  EXPECT_TRUE(conflict_done) << "row conflict starved behind row hits";
}

TEST(Dram, WithoutCapHitsBypassConflictLonger) {
  // Control for the starvation test: with a huge cap the conflict waits
  // much longer than with a tight one.
  auto conflict_wait = [](std::uint32_t cap) {
    DramTimings t = table1_timings();
    t.starvation_cap = cap;
    GddrDram d(16, t, 32);
    d.enqueue({1, 0, 5, false, 0});
    run_until_completion(d, 200);
    d.enqueue({2, 0, 9, false, 0});
    TxnId next_hit = 100;
    for (std::uint64_t tick = 0; tick < 5000; ++tick) {
      if (d.can_enqueue()) d.enqueue({next_hit++, 0, 5, false, 0});
      d.tick(false);
      for (const auto& c : drain(d)) {
        if (c.txn == 2) return tick;
      }
    }
    return std::uint64_t{5000};
  };
  EXPECT_LT(conflict_wait(32), conflict_wait(2000));
}

TEST(Dram, QueueCapacityEnforced) {
  GddrDram d(16, table1_timings(), 2);
  EXPECT_TRUE(d.can_enqueue());
  d.enqueue({1, 0, 0, false, 0});
  d.enqueue({2, 1, 0, false, 0});
  EXPECT_FALSE(d.can_enqueue());
  EXPECT_EQ(d.queue_depth(), 2u);
}

TEST(Dram, StatsReset) {
  GddrDram d(16, table1_timings(), 8);
  d.enqueue({1, 0, 5, false, 0});
  run_until_completion(d, 100);
  EXPECT_GT(d.accesses(), 0u);
  d.reset_stats();
  EXPECT_EQ(d.accesses(), 0u);
  EXPECT_EQ(d.activates(), 0u);
  EXPECT_EQ(d.row_hits(), 0u);
}

// Property: under any random request mix, every enqueued request completes.
TEST(Dram, NoRequestIsLost) {
  GddrDram d(8, table1_timings(), 16);
  Xoshiro256 rng(17);
  TxnId id = 0;
  std::uint64_t completed = 0;
  for (std::uint64_t t = 0; t < 20000 && id < 300; ++t) {
    if (d.can_enqueue() && rng.chance(0.3)) {
      d.enqueue({id++, static_cast<std::uint32_t>(rng.next_below(8)),
                 rng.next_below(50), rng.chance(0.3), 0});
    }
    d.tick(rng.chance(0.2));  // Occasional output blockage.
    completed += drain(d).size();
  }
  for (std::uint64_t t = 0; t < 5000 && completed < id; ++t) {
    d.tick(false);
    completed += drain(d).size();
  }
  EXPECT_EQ(completed, id);
}

}  // namespace
}  // namespace arinoc
