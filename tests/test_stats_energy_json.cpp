// Coverage for the stats plumbing: NocStats decomposition, Metrics
// coherence across schemes, JSON edge cases, and energy composition.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/experiment.hpp"
#include "core/report.hpp"
#include "exec/runner.hpp"
#include "noc/noc_stats.hpp"

namespace arinoc {
namespace {

TEST(NocStats, DecompositionSumsToLatency) {
  NocStats s;
  Packet p;
  p.type = PacketType::kReadReply;
  p.num_flits = 5;
  p.created = 100;
  p.injected = 130;
  s.record_delivery(p, 150);
  EXPECT_DOUBLE_EQ(s.ni_wait.mean(), 30.0);
  EXPECT_DOUBLE_EQ(s.net_transit.mean(), 20.0);
  EXPECT_DOUBLE_EQ(s.mean_latency(PacketType::kReadReply), 50.0);
  EXPECT_DOUBLE_EQ(s.mean_latency_all(), 50.0);
}

TEST(NocStats, PerTypeAccounting) {
  NocStats s;
  Packet rr;
  rr.type = PacketType::kReadReply;
  rr.num_flits = 5;
  Packet wr;
  wr.type = PacketType::kWriteReply;
  wr.num_flits = 1;
  s.record_delivery(rr, 10);
  s.record_delivery(rr, 20);
  s.record_delivery(wr, 30);
  EXPECT_EQ(s.packets_delivered[2], 2u);
  EXPECT_EQ(s.packets_delivered[3], 1u);
  EXPECT_EQ(s.total_flits(), 11u);
  EXPECT_EQ(s.total_packets(), 3u);
  s.reset();
  EXPECT_EQ(s.total_packets(), 0u);
  EXPECT_EQ(s.ni_wait.count(), 0u);
}

TEST(NocStats, SkipsDecompositionForUninjectedPackets) {
  NocStats s;
  Packet p;
  p.created = 50;
  p.injected = 0;  // Never injected (e.g. overlay without stamping).
  s.record_delivery(p, 60);
  EXPECT_EQ(s.ni_wait.count(), 0u);
  EXPECT_EQ(s.latency[0].count(), 1u);
}

TEST(PacketTypeNames, Stable) {
  EXPECT_STREQ(packet_type_name(PacketType::kReadRequest), "read_request");
  EXPECT_STREQ(packet_type_name(PacketType::kWriteRequest), "write_request");
  EXPECT_STREQ(packet_type_name(PacketType::kReadReply), "read_reply");
  EXPECT_STREQ(packet_type_name(PacketType::kWriteReply), "write_reply");
}

TEST(MetricsJson, ParsesAsBalancedJson) {
  Metrics m;
  m.cycles = 12345;
  m.ipc = 0.333333333;
  const std::string j = metrics_to_json(m);
  // Structural sanity: balanced braces, no trailing comma, quoted keys.
  EXPECT_EQ(std::count(j.begin(), j.end(), '{'), 1);
  EXPECT_EQ(std::count(j.begin(), j.end(), '}'), 1);
  EXPECT_EQ(j.find(",\n}"), std::string::npos);
  const auto colons = std::count(j.begin(), j.end(), ':');
  const auto quotes = std::count(j.begin(), j.end(), '"');
  EXPECT_EQ(quotes, colons * 2);  // Every key quoted, values numeric.
}

TEST(MetricsJson, EmitsIntegersWithoutFraction) {
  Metrics m;
  m.cycles = 777;
  const std::string j = metrics_to_json(m);
  EXPECT_NE(j.find("\"cycles\": 777"), std::string::npos);
  EXPECT_EQ(j.find("777.0"), std::string::npos);
}

TEST(Energy, MetricsEnergyConsistentWithActivity) {
  Config cfg;
  cfg.warmup_cycles = 200;
  cfg.run_cycles = 1000;
  const auto results = exec::ExperimentRunner(cfg).run(
      {{"base", Scheme::kXYBaseline, "hotspot", nullptr}});
  ASSERT_TRUE(results[0].ok()) << results[0].error;
  const Metrics& m = results[0].metrics;
  const EnergyBreakdown recomputed = EnergyModel{}.evaluate(m.activity);
  EXPECT_DOUBLE_EQ(m.energy.total_nj(), recomputed.total_nj());
  EXPECT_EQ(m.activity.cycles, m.cycles);
  EXPECT_GT(m.activity.noc_link_flits, 0u);
  EXPECT_GT(m.activity.dram_accesses, 0u);
}

TEST(Energy, AriAddsNoDramActivityPerRequest) {
  // ARI changes the NoC, not the memory protocol: DRAM accesses per served
  // request must be scheme-independent (within noise).
  Config cfg;
  cfg.warmup_cycles = 500;
  cfg.run_cycles = 3000;
  const auto results = exec::ExperimentRunner(cfg).run(
      {{"base", Scheme::kAdaBaseline, "bfs", nullptr},
       {"base", Scheme::kAdaARI, "bfs", nullptr}});
  for (const auto& r : results) ASSERT_TRUE(r.ok()) << r.error;
  const Metrics& base = results[0].metrics;
  const Metrics& ari = results[1].metrics;
  const double per_req_base =
      static_cast<double>(base.activity.dram_accesses) /
      static_cast<double>(base.packets_by_type[0] + base.packets_by_type[1]);
  const double per_req_ari =
      static_cast<double>(ari.activity.dram_accesses) /
      static_cast<double>(ari.packets_by_type[0] + ari.packets_by_type[1]);
  EXPECT_NEAR(per_req_ari / per_req_base, 1.0, 0.15);
}

TEST(Accumulator, MinMaxAcrossSignChanges) {
  Accumulator a;
  a.add(-5.0);
  a.add(3.0);
  EXPECT_DOUBLE_EQ(a.min(), -5.0);
  EXPECT_DOUBLE_EQ(a.max(), 3.0);
  EXPECT_DOUBLE_EQ(a.mean(), -1.0);
}

TEST(RunWithWarmup, ExcludesWarmupFromMetrics) {
  Config cfg = apply_scheme(Config{}, Scheme::kXYBaseline);
  cfg.warmup_cycles = 1000;
  cfg.run_cycles = 2000;
  GpgpuSim sim(cfg, *find_benchmark("hotspot"));
  sim.run_with_warmup();
  const Metrics m = sim.collect();
  EXPECT_EQ(m.cycles, 2000u);
  EXPECT_EQ(sim.now(), 3000u);
}

}  // namespace
}  // namespace arinoc
