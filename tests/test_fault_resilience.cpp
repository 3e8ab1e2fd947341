// Fault-injection & resilience subsystem: deterministic fault schedules,
// CRC/retransmission recovery, credit-loss accounting, and the
// deadlock/livelock watchdog.
#include <gtest/gtest.h>

#include <string>

#include "core/experiment.hpp"
#include "core/gpgpu_sim.hpp"
#include "core/report.hpp"
#include "core/watchdog.hpp"
#include "exec/runner.hpp"
#include "noc/fault.hpp"
#include "topo/generators.hpp"

namespace arinoc {
namespace {

Config tiny_config() {
  Config cfg;
  cfg.warmup_cycles = 300;
  cfg.run_cycles = 1500;
  return cfg;
}

// ---------------------------------------------------------------------------
// Determinism: the fault schedule is a pure function of (fault seed, mesh,
// rates) — independent of the traffic seed and workload.
// ---------------------------------------------------------------------------

TEST(FaultDeterminism, SameFaultSeedSameScheduleAcrossTrafficSeeds) {
  Config cfg = apply_scheme(tiny_config(), Scheme::kAdaARI);
  cfg.fault_corrupt_rate = 1e-3;
  cfg.fault_link_stall_rate = 1e-4;
  cfg.fault_credit_loss_rate = 1e-4;
  cfg.fault_seed = 777;

  auto digest_with_traffic_seed = [&](std::uint64_t traffic_seed) {
    Config c = cfg;
    c.seed = traffic_seed;
    GpgpuSim sim(c, *find_benchmark("bfs"));
    sim.run(2000);
    const FaultInjector* fi = sim.reply_net().fault();
    EXPECT_NE(fi, nullptr);
    return fi->schedule_digest();
  };

  const std::uint64_t d1 = digest_with_traffic_seed(1);
  const std::uint64_t d2 = digest_with_traffic_seed(999);
  EXPECT_EQ(d1, d2);  // Traffic seed must not perturb the fault schedule.

  // But a different *fault* seed draws a different schedule.
  cfg.fault_seed = 778;
  Config c = cfg;
  c.seed = 1;
  GpgpuSim sim(c, *find_benchmark("bfs"));
  sim.run(2000);
  EXPECT_NE(sim.reply_net().fault()->schedule_digest(), d1);
}

TEST(FaultDeterminism, IdenticalConfigBitIdenticalStatsJson) {
  Config cfg = apply_scheme(tiny_config(), Scheme::kAdaARI);
  cfg.fault_corrupt_rate = 5e-4;
  cfg.fault_link_stall_rate = 5e-5;
  auto run_json = [&] {
    GpgpuSim sim(cfg, *find_benchmark("kmeans"));
    sim.run_with_warmup();
    return metrics_to_json(sim.collect());
  };
  EXPECT_EQ(run_json(), run_json());
}

TEST(FaultDeterminism, ZeroRatesConstructNoSubsystem) {
  // All-rates-zero is a strict no-op: no injector, no tracker.
  GpgpuSim sim(apply_scheme(tiny_config(), Scheme::kAdaARI),
               *find_benchmark("bfs"));
  EXPECT_EQ(sim.reply_net().fault(), nullptr);
  EXPECT_EQ(sim.reply_net().retransmit(), nullptr);
  EXPECT_EQ(sim.request_net().fault(), nullptr);
}

// ---------------------------------------------------------------------------
// Recovery: CRC-failed reply packets are retransmitted and re-delivered.
// ---------------------------------------------------------------------------

TEST(FaultRecovery, CorruptedPacketsAreRecovered) {
  Config cfg = apply_scheme(tiny_config(), Scheme::kAdaARI);
  cfg.fault_corrupt_rate = 1e-3;
  cfg.run_cycles = 4000;
  GpgpuSim sim(cfg, *find_benchmark("bfs"));
  sim.run_with_warmup();
  const Metrics m = sim.collect();
  ASSERT_GT(m.packets_corrupted, 0u);
  EXPECT_GT(m.packets_retransmitted, 0u);
  EXPECT_GT(m.packets_recovered, 0u);
  // >= 99% of corrupted packets recovered (the rest may still be in flight,
  // but none may exhaust their retry budget at this fault rate).
  EXPECT_LE(m.packets_lost,
            static_cast<std::uint64_t>(0.01 * m.packets_corrupted));
  // The system keeps making progress under faults.
  EXPECT_GT(m.ipc, 0.05);
}

TEST(FaultRecovery, WithoutRecoveryCorruptPacketsAreLost) {
  Config cfg = apply_scheme(tiny_config(), Scheme::kAdaARI);
  cfg.fault_corrupt_rate = 1e-3;
  cfg.fault_recovery = false;
  cfg.watchdog_enabled = false;  // Lost replies wedge their warps.
  GpgpuSim sim(cfg, *find_benchmark("bfs"));
  sim.run(3000);
  const Metrics m = sim.collect();
  ASSERT_GT(m.packets_corrupted, 0u);
  EXPECT_EQ(m.packets_retransmitted, 0u);
  EXPECT_EQ(m.packets_lost, m.packets_corrupted);
}

TEST(FaultRecovery, CreditLossIsAccountedByValidator) {
  Config cfg = apply_scheme(tiny_config(), Scheme::kAdaARI);
  cfg.fault_credit_loss_rate = 5e-4;
  GpgpuSim sim(cfg, *find_benchmark("bfs"));
  sim.run(3000);
  const Metrics m = sim.collect();
  EXPECT_GT(m.credits_lost, 0u);
  // Destroyed credits are part of the conservation ledger, not a violation.
  EXPECT_EQ(sim.reply_net().validate_credit_invariants(), "");
  EXPECT_EQ(sim.request_net().validate_credit_invariants(), "");
}

TEST(FaultRecovery, LinkStallsDoNotLoseFlits) {
  Config cfg = apply_scheme(tiny_config(), Scheme::kAdaARI);
  cfg.fault_link_stall_rate = 2e-4;
  cfg.fault_link_stall_len = 30;
  GpgpuSim sim(cfg, *find_benchmark("bfs"));
  sim.run(3000);
  const Metrics m = sim.collect();
  EXPECT_GT(m.link_stall_events, 0u);
  EXPECT_EQ(m.packets_lost, 0u);
  EXPECT_EQ(sim.reply_net().validate_credit_invariants(), "");
}

TEST(FaultRecovery, Da2MeshOverlayRejectsFaultCampaigns) {
  Config cfg = apply_scheme(tiny_config(), Scheme::kAdaARI);
  cfg.fault_corrupt_rate = 1e-3;
  EXPECT_THROW(GpgpuSim(cfg, *find_benchmark("bfs"), /*use_da2mesh=*/true),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Watchdog: synthetic-observation unit tests.
// ---------------------------------------------------------------------------

Watchdog::Observation obs(std::uint64_t movement, std::size_t live,
                          Cycle oldest = 0, bool has_oldest = false) {
  return {movement, live, oldest, has_oldest};
}

const std::function<std::string()> kNoAudit = [] { return std::string(); };

TEST(WatchdogUnit, DeadlockTripsAfterWindowWithLivePackets) {
  WatchdogParams p;
  p.deadlock_window = 200;
  p.check_interval = 50;
  Watchdog w(p);
  // Movement frozen at 42 with one live packet.
  WatchdogTripKind kind = WatchdogTripKind::kNone;
  for (Cycle t = 0; t <= 400 && kind == WatchdogTripKind::kNone; t += 50)
    kind = w.poll(t, [&] { return obs(42, 1); }, kNoAudit);
  EXPECT_EQ(kind, WatchdogTripKind::kDeadlock);
  EXPECT_NE(w.detail().find("no flit movement"), std::string::npos);
}

TEST(WatchdogUnit, NoTripWhenIdleOrMoving) {
  WatchdogParams p;
  p.deadlock_window = 200;
  p.check_interval = 50;
  {
    Watchdog w(p);  // Frozen movement but zero live packets: just idle.
    for (Cycle t = 0; t <= 1000; t += 50)
      EXPECT_EQ(w.poll(t, [&] { return obs(42, 0); }, kNoAudit),
                WatchdogTripKind::kNone);
  }
  {
    Watchdog w(p);  // Movement advances each poll: healthy.
    std::uint64_t mv = 0;
    for (Cycle t = 0; t <= 1000; t += 50)
      EXPECT_EQ(w.poll(t, [&] { return obs(++mv, 5); }, kNoAudit),
                WatchdogTripKind::kNone);
  }
}

TEST(WatchdogUnit, LivelockTripsOnPacketAgeCeiling) {
  WatchdogParams p;
  p.livelock_age = 300;
  p.check_interval = 50;
  Watchdog w(p);
  std::uint64_t mv = 0;  // Plenty of movement: deadlock detector stays quiet.
  WatchdogTripKind kind = WatchdogTripKind::kNone;
  for (Cycle t = 0; t <= 600 && kind == WatchdogTripKind::kNone; t += 50)
    kind = w.poll(t, [&] { return obs(++mv, 3, /*oldest=*/0, true); },
                  kNoAudit);
  EXPECT_EQ(kind, WatchdogTripKind::kLivelock);
}

TEST(WatchdogUnit, AuditFailureTripsInvariant) {
  WatchdogParams p;
  p.audit_interval = 100;
  p.check_interval = 50;
  Watchdog w(p);
  std::uint64_t mv = 0;
  WatchdogTripKind kind = WatchdogTripKind::kNone;
  for (Cycle t = 0; t <= 300 && kind == WatchdogTripKind::kNone; t += 50)
    kind = w.poll(t, [&] { return obs(++mv, 1); },
                  [] { return std::string("credit leak on link X"); });
  EXPECT_EQ(kind, WatchdogTripKind::kInvariant);
  EXPECT_NE(w.detail().find("credit leak"), std::string::npos);
}

TEST(WatchdogUnit, TripExitStatusesAreDistinct) {
  const WatchdogTrip dead(WatchdogTripKind::kDeadlock, "d", "dump");
  const WatchdogTrip live(WatchdogTripKind::kLivelock, "l", "dump");
  const WatchdogTrip inv(WatchdogTripKind::kInvariant, "i", "dump");
  EXPECT_EQ(dead.exit_status(), 3);
  EXPECT_EQ(live.exit_status(), 4);
  EXPECT_EQ(inv.exit_status(), 5);
}

// ---------------------------------------------------------------------------
// Watchdog: end-to-end behaviour inside GpgpuSim.
// ---------------------------------------------------------------------------

TEST(WatchdogSim, WedgedNetworkTripsWithDiagnosticDump) {
  // Seeded permanent port failures with recovery disabled wedge the reply
  // network; the watchdog must convert the hang into a clean diagnosis.
  Config cfg = apply_scheme(tiny_config(), Scheme::kXYBaseline);
  cfg.fault_port_fail_rate = 2e-5;
  cfg.fault_recovery = false;
  cfg.watchdog_deadlock_window = 600;
  GpgpuSim sim(cfg, *find_benchmark("bfs"));
  bool tripped = false;
  try {
    sim.run(30000);
  } catch (const WatchdogTrip& trip) {
    tripped = true;
    EXPECT_EQ(trip.kind(), WatchdogTripKind::kDeadlock);
    EXPECT_EQ(trip.exit_status(), 3);
    EXPECT_FALSE(trip.dump().empty());
    // The dump names the failed links and the stuck packets (with ages).
    EXPECT_NE(trip.dump().find("blocked links"), std::string::npos);
    EXPECT_NE(trip.dump().find("age"), std::string::npos);
  }
  EXPECT_TRUE(tripped);
}

TEST(WatchdogSim, NoFalsePositivesAcrossSmokeSuite) {
  // Every benchmark in the 30-workload suite runs clean under an aggressive
  // watchdog (tight deadlock window + periodic credit audits).
  Config cfg = apply_scheme(tiny_config(), Scheme::kAdaARI);
  cfg.watchdog_deadlock_window = 300;
  cfg.watchdog_audit_interval = 500;
  for (const BenchmarkTraits& b : benchmark_suite()) {
    GpgpuSim sim(cfg, b);
    EXPECT_NO_THROW(sim.run(1200)) << "false positive on " << b.name;
  }
}

TEST(WatchdogSim, DiagnosticDumpIsCallableOnHealthySystem) {
  GpgpuSim sim(apply_scheme(tiny_config(), Scheme::kAdaARI),
               *find_benchmark("bfs"));
  sim.run(500);
  const std::string dump = sim.diagnostic_dump("test probe");
  EXPECT_NE(dump.find("test probe"), std::string::npos);
  EXPECT_NE(dump.find("request"), std::string::npos);
  EXPECT_NE(dump.find("reply"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Config validation & entry-point hardening.
// ---------------------------------------------------------------------------

TEST(FaultConfig, ValidateRejectsBadFaultKnobs) {
  Config cfg;
  cfg.fault_corrupt_rate = 1.5;
  EXPECT_NE(cfg.validate().find("fault_corrupt_rate"), std::string::npos);
  cfg = Config{};
  cfg.fault_credit_loss_rate = -0.1;
  EXPECT_NE(cfg.validate().find("fault_credit_loss_rate"), std::string::npos);
  cfg = Config{};
  cfg.rtx_timeout = 0;
  EXPECT_NE(cfg.validate().find("rtx_timeout"), std::string::npos);
  cfg = Config{};
  cfg.watchdog_deadlock_window = 0;
  EXPECT_NE(cfg.validate().find("watchdog_deadlock_window"),
            std::string::npos);
  cfg.watchdog_enabled = false;  // Knob only checked when the watchdog is on.
  EXPECT_EQ(cfg.validate(), "");
}

TEST(FaultConfig, ValidateMessagesEmbedOffendingValues) {
  Config cfg;
  cfg.mesh_width = 0;
  EXPECT_NE(cfg.validate().find("0x6"), std::string::npos);
  cfg = Config{};
  cfg.injection_speedup = 7;
  EXPECT_NE(cfg.validate().find("S=7"), std::string::npos);
}

TEST(FaultConfig, SimAndExperimentRejectInvalidConfigs) {
  Config bad = tiny_config();
  bad.num_vcs = 0;
  EXPECT_THROW(GpgpuSim(bad, *find_benchmark("bfs")), std::invalid_argument);
  // The runner reports an unknown benchmark and an out-of-range fault rate
  // as config errors with the CLI's exit status, not as an abort.
  const auto results = exec::ExperimentRunner(tiny_config()).run(
      {{"unknown", Scheme::kAdaARI, "no-such-bench", nullptr},
       {"bad-rate", Scheme::kAdaARI, "bfs",
        [](Config& c) { c.fault_corrupt_rate = 2.0; }}});
  ASSERT_EQ(results.size(), 2u);
  for (const auto& r : results) {
    EXPECT_EQ(r.error_kind, "config") << r.point << ": " << r.error;
    EXPECT_EQ(r.exit_status, 2) << r.point;
  }
  EXPECT_NE(results[0].error.find("no-such-bench"), std::string::npos);
  EXPECT_NE(results[1].error.find("fault_corrupt_rate"), std::string::npos);
}

TEST(FaultConfig, EnableMaskGatesFaultClasses) {
  Config cfg;
  cfg.fault_corrupt_rate = 1e-3;
  cfg.fault_enable_mask = 0;  // Rate set but class masked off: no faults.
  EXPECT_FALSE(cfg.fault_enabled());
  cfg.fault_enable_mask = kFaultCorrupt;
  EXPECT_TRUE(cfg.fault_enabled());
}

// ---------------------------------------------------------------------------
// Stall windows must close: the injector has to push the *unblock*
// transition when a window expires, not just the block. (Regression: the
// old change detection recomputed "was blocked" at the current cycle, so a
// window expiring exactly then looked like no transition and the router
// stayed blocked forever — the chaos soak wedged on this.)
// ---------------------------------------------------------------------------

TEST(FaultInjection, StallWindowsUnblockAfterExpiry) {
  const topo::Fabric mesh(topo::make_mesh_graph(4, 4, 4));
  FaultParams p;
  p.link_stall_rate = 5e-3;
  p.link_stall_len = 20;
  FaultInjector fi(p, &mesh);

  Cycle now = 0;
  NodeId src = kInvalidNode;
  int dir = -1;
  // Drive until the first stall window opens; the block transition must be
  // pushed that cycle.
  while (fi.counters().stall_events == 0) {
    ASSERT_LT(now, 10000u) << "no stall drawn at rate 5e-3";
    fi.begin_cycle(now++);
  }
  ASSERT_FALSE(fi.changed_links().empty());
  std::tie(src, dir) = fi.changed_links().front();
  EXPECT_TRUE(fi.link_blocked(src, dir));

  // The window holds for link_stall_len cycles and then must report the
  // unblock transition for the same link.
  bool unblocked = false;
  for (Cycle end = now + 2 * p.link_stall_len; now < end && !unblocked;
       ++now) {
    fi.begin_cycle(now);
    for (const auto& [n, d] : fi.changed_links()) {
      if (n == src && d == dir && !fi.link_blocked(n, d)) unblocked = true;
    }
  }
  EXPECT_TRUE(unblocked) << "stall window never reported its unblock";
  EXPECT_FALSE(fi.link_blocked(src, dir));
}

TEST(FaultInjection, StalledFabricDrainsAfterWindowsClose) {
  // End-to-end shape of the same contract: with only transient stalls
  // enabled, throughput must keep flowing long after many windows opened.
  Config cfg = apply_scheme(tiny_config(), Scheme::kAdaARI);
  cfg.fault_link_stall_rate = 1e-4;
  cfg.fault_enable_mask = kFaultLinkStall;
  GpgpuSim sim(cfg, *find_benchmark("bfs"));
  sim.run(3000);
  const std::uint64_t mid = sim.collect().warp_instructions;
  sim.run(3000);
  const Metrics m = sim.collect();
  EXPECT_GT(m.link_stall_events, 0u);
  // Fresh progress in the second half: no creeping permanent blockage.
  EXPECT_GT(m.warp_instructions, mid + mid / 4);
}

}  // namespace
}  // namespace arinoc
