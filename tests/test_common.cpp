// Tests for common utilities: RNG determinism, statistics helpers, the
// clock-ratio ticker, configuration validation and scheme presets.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"

namespace arinoc {
namespace {

TEST(Xoshiro, DeterministicForSameSeed) {
  Xoshiro256 a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Xoshiro, DifferentSeedsDiverge) {
  Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Xoshiro, NextBelowInRange) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(13), 13u);
  }
}

TEST(Xoshiro, DoubleInUnitInterval) {
  Xoshiro256 rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Xoshiro, ChanceMatchesProbability) {
  Xoshiro256 rng(11);
  int hits = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    if (rng.chance(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.3, 0.02);
}

TEST(Accumulator, TracksMeanMinMax) {
  Accumulator a;
  a.add(2.0);
  a.add(4.0);
  a.add(6.0);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_DOUBLE_EQ(a.mean(), 4.0);
  EXPECT_DOUBLE_EQ(a.min(), 2.0);
  EXPECT_DOUBLE_EQ(a.max(), 6.0);
}

TEST(Accumulator, EmptyIsZero) {
  Accumulator a;
  EXPECT_EQ(a.count(), 0u);
  EXPECT_DOUBLE_EQ(a.mean(), 0.0);
}

TEST(Geomean, MatchesClosedForm) {
  const std::vector<double> xs = {1.0, 2.0, 4.0};
  EXPECT_NEAR(geomean(xs), 2.0, 1e-12);
}

TEST(Geomean, EmptyIsZero) {
  EXPECT_DOUBLE_EQ(geomean({}), 0.0);
}

TEST(Mean, Basic) {
  const std::vector<double> xs = {1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(mean(xs), 2.0);
}

TEST(ClockRatio, IntegerRatio) {
  ClockRatio cr(2.0);
  int total = 0;
  for (int i = 0; i < 100; ++i) total += static_cast<int>(cr.ticks_this_cycle());
  EXPECT_EQ(total, 200);
}

TEST(ClockRatio, FractionalRatioAveragesOut) {
  ClockRatio cr(1.75);  // The GDDR5 : NoC clock ratio.
  int total = 0;
  for (int i = 0; i < 1000; ++i) total += static_cast<int>(cr.ticks_this_cycle());
  EXPECT_EQ(total, 1750);
}

TEST(ClockRatio, PerCycleTicksBounded) {
  ClockRatio cr(1.75);
  for (int i = 0; i < 100; ++i) {
    const auto t = cr.ticks_this_cycle();
    EXPECT_GE(t, 1u);
    EXPECT_LE(t, 2u);
  }
}

TEST(Config, DefaultsValid) {
  Config cfg;
  EXPECT_EQ(cfg.validate(), "");
}

TEST(Config, DerivedGeometry) {
  Config cfg;
  EXPECT_EQ(cfg.num_nodes(), 36u);
  EXPECT_EQ(cfg.num_ccs(), 28u);
  // 512-bit payload over 128-bit links: 1 header + 4 payload flits.
  EXPECT_EQ(cfg.reply_long_flits(), 5u);
  EXPECT_EQ(cfg.vc_depth_flits_reply(), 5u);
}

TEST(Config, WiderLinkShrinksLongPackets) {
  Config cfg;
  cfg.link_width_bits_reply = 256;
  EXPECT_EQ(cfg.reply_long_flits(), 3u);
}

TEST(Config, RejectsSpeedupAboveVcs) {
  Config cfg;
  cfg.injection_speedup = 5;
  cfg.num_vcs = 4;
  EXPECT_NE(cfg.validate(), "");
}

TEST(Config, RejectsMoreThan64Vcs) {
  Config cfg;
  cfg.num_vcs = 64;
  EXPECT_EQ(cfg.validate(), "");
  cfg.num_vcs = 65;
  EXPECT_NE(cfg.validate().find("num_vcs=65 exceeds 64"), std::string::npos)
      << cfg.validate();
}

TEST(Config, RejectsTinyNiQueue) {
  Config cfg;
  cfg.ni_queue_flits = 2;
  EXPECT_NE(cfg.validate(), "");
}

TEST(Config, RejectsNiQueueBelowLongRequestPacket) {
  // A 64-bit request link makes a write request 9 flits; an 8-flit NI
  // queue holds a long reply (5 flits) but never a long request.
  Config cfg;
  cfg.link_width_bits_request = 64;
  cfg.ni_queue_flits = 8;
  EXPECT_NE(cfg.validate().find("cannot hold one long request packet (9"),
            std::string::npos)
      << cfg.validate();
  cfg.ni_queue_flits = 9;
  EXPECT_EQ(cfg.validate(), "");
}

// Node counts are checked in 64 bits: a fabric past NodeId's range is named
// as oversized, not wrapped to a small count (65536^2 is 0 in 32 bits).
// validate() builds nothing, so these sizes are safe to check.
TEST(Config, RejectsMeshBeyondNodeIdRange) {
  Config cfg;
  for (std::uint32_t w : {46341u, 65536u, 4294967295u}) {
    cfg.mesh_width = cfg.mesh_height = w;
    const std::string err = cfg.validate();
    EXPECT_NE(err.find("needs more than 2147483647 nodes"), std::string::npos)
        << w << ": " << err;
    EXPECT_EQ(err.find("MCs for"), std::string::npos) << err;
  }
  cfg.mesh_width = cfg.mesh_height = 46340;  // 2147395600 nodes: in range.
  EXPECT_EQ(cfg.validate(), "");
}

TEST(Config, RejectsChipletAndCmeshBeyondNodeIdRange) {
  Config chiplet;
  chiplet.fabric = "chiplet";
  chiplet.mesh_width = chiplet.mesh_height = 1;
  chiplet.chiplets_x = chiplet.chiplets_y = 65536;  // Product wraps to 0.
  std::string err = chiplet.validate();
  EXPECT_NE(err.find("on 65536x65536 chiplets needs more than"),
            std::string::npos)
      << err;
  EXPECT_EQ(err.find("at least 2 chiplets"), std::string::npos) << err;

  Config cmesh;
  cmesh.fabric = "cmesh";
  cmesh.cmesh_concentration = 4294967295u;
  err = cmesh.validate();
  EXPECT_NE(err.find("with 4294967295 endpoints each needs more than"),
            std::string::npos)
      << err;
}

TEST(Config, RejectsZeroMcs) {
  Config cfg;
  cfg.num_mcs = 0;
  EXPECT_NE(cfg.validate(), "");
}

TEST(Config, Table1MentionsKeyParameters) {
  Config cfg;
  const std::string t = cfg.table1();
  EXPECT_NE(t.find("FR-FCFS"), std::string::npos);
  EXPECT_NE(t.find("Diamond"), std::string::npos);
  EXPECT_NE(t.find("Greedy-then-oldest"), std::string::npos);
  EXPECT_NE(t.find("6x6"), std::string::npos);
}

TEST(SchemePresets, XYBaselineIsEnhancedNoAri) {
  const Config cfg = apply_scheme(Config{}, Scheme::kXYBaseline);
  EXPECT_EQ(cfg.routing, RoutingAlgo::kXY);
  EXPECT_EQ(cfg.reply_ni, NiArch::kEnhanced);
  EXPECT_EQ(cfg.injection_speedup, 1u);
  EXPECT_EQ(cfg.priority_levels, 1u);
}

TEST(SchemePresets, AdaAriEnablesAllThree) {
  const Config cfg = apply_scheme(Config{}, Scheme::kAdaARI);
  EXPECT_EQ(cfg.routing, RoutingAlgo::kMinAdaptive);
  EXPECT_EQ(cfg.reply_ni, NiArch::kSplitQueue);
  EXPECT_EQ(cfg.injection_speedup, 4u);
  EXPECT_EQ(cfg.priority_levels, 2u);
}

TEST(SchemePresets, AccSupplyOnlyAcceleratesSupply) {
  const Config cfg = apply_scheme(Config{}, Scheme::kAccSupply);
  EXPECT_EQ(cfg.reply_ni, NiArch::kSplitQueue);
  EXPECT_EQ(cfg.injection_speedup, 1u);
  EXPECT_EQ(cfg.priority_levels, 1u);
}

TEST(SchemePresets, AccConsumeOnlyAcceleratesConsumption) {
  const Config cfg = apply_scheme(Config{}, Scheme::kAccConsume);
  EXPECT_EQ(cfg.reply_ni, NiArch::kEnhanced);
  EXPECT_EQ(cfg.injection_speedup, 4u);
  EXPECT_EQ(cfg.priority_levels, 1u);
}

TEST(SchemePresets, MultiPortUsesExtraPorts) {
  const Config cfg = apply_scheme(Config{}, Scheme::kAdaMultiPort);
  EXPECT_EQ(cfg.reply_ni, NiArch::kMultiPort);
  EXPECT_GE(cfg.multiport_ports, 2u);
}

TEST(SchemePresets, RawBaselineUsesNarrowLinkBaselineNi) {
  // NiArch::kBaseline is what puts replies through the narrow MC->NI link.
  const Config cfg = apply_scheme(Config{}, Scheme::kRawBaseline);
  EXPECT_EQ(cfg.reply_ni, NiArch::kBaseline);
}

TEST(SchemePresets, SpeedupClampedByVcCount) {
  Config base;
  base.num_vcs = 2;
  const Config cfg = apply_scheme(base, Scheme::kAdaARI);
  EXPECT_EQ(cfg.injection_speedup, 2u);  // Eq. (2): S <= N_vc.
  EXPECT_EQ(cfg.validate(), "");
}

TEST(SchemeNames, AllDistinct) {
  std::set<std::string> names;
  for (Scheme s :
       {Scheme::kXYBaseline, Scheme::kXYARI, Scheme::kAdaBaseline,
        Scheme::kAdaMultiPort, Scheme::kAdaARI, Scheme::kAccSupply,
        Scheme::kAccConsume, Scheme::kAccBothNoPrio, Scheme::kRawBaseline}) {
    names.insert(scheme_name(s));
  }
  EXPECT_EQ(names.size(), 9u);
}

}  // namespace
}  // namespace arinoc
