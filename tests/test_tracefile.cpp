// Trace-file workloads: parsing, validation, round-trip, address
// relocation, and driving the full simulator from a trace.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "core/experiment.hpp"
#include "core/gpgpu_sim.hpp"
#include "core/report.hpp"
#include "workloads/tracefile.hpp"

namespace arinoc {
namespace {

TEST(Trace, ParsesAllRecordTypes) {
  std::istringstream in(
      "# a comment\n"
      "A\n"
      "L 0x100 0x140\n"
      "S 256\n"
      "\n"
      "L 0x200  # trailing comment\n");
  const Trace t = Trace::parse(in);
  ASSERT_EQ(t.size(), 4u);
  EXPECT_FALSE(t.at(0).is_mem);
  EXPECT_TRUE(t.at(1).is_mem);
  EXPECT_FALSE(t.at(1).is_store);
  EXPECT_EQ(t.at(1).num_lines, 2);
  EXPECT_EQ(t.at(1).lines[0], 0x100u);
  EXPECT_EQ(t.at(1).lines[1], 0x140u);
  EXPECT_TRUE(t.at(2).is_store);
  EXPECT_EQ(t.at(2).lines[0], 256u);
  EXPECT_EQ(t.at(3).lines[0], 0x200u);
}

TEST(Trace, RejectsMalformedInput) {
  {
    std::istringstream in("X 0x100\n");
    EXPECT_THROW(Trace::parse(in), std::invalid_argument);
  }
  {
    std::istringstream in("L\n");  // Memory op without address.
    EXPECT_THROW(Trace::parse(in), std::invalid_argument);
  }
  {
    std::istringstream in("L zzz\n");
    EXPECT_THROW(Trace::parse(in), std::invalid_argument);
  }
  {
    std::istringstream in("L 1 2 3 4 5\n");  // Too many addresses.
    EXPECT_THROW(Trace::parse(in), std::invalid_argument);
  }
  {
    std::istringstream in("# only comments\n");
    EXPECT_THROW(Trace::parse(in), std::invalid_argument);
  }
}

TEST(Trace, RoundTripsThroughText) {
  std::istringstream in("A\nL 0x100\nS 0x40 0x80\n");
  const Trace t = Trace::parse(in);
  std::istringstream again(t.to_text());
  const Trace t2 = Trace::parse(again);
  ASSERT_EQ(t2.size(), t.size());
  for (std::size_t i = 0; i < t.size(); ++i) {
    EXPECT_EQ(t2.at(i).is_mem, t.at(i).is_mem);
    EXPECT_EQ(t2.at(i).is_store, t.at(i).is_store);
    EXPECT_EQ(t2.at(i).num_lines, t.at(i).num_lines);
    for (int k = 0; k < t.at(i).num_lines; ++k) {
      EXPECT_EQ(t2.at(i).lines[k], t.at(i).lines[k]);
    }
  }
}

TEST(Trace, RejectsSignedAndTrailingAddressesWithLocation) {
  // Each bad line is a located configuration error: "<origin>:<line>: ...".
  const struct {
    const char* text;
    const char* where;
  } cases[] = {
      {"garbage\n", "t.trace:1: unknown op 'garbage'"},
      {"A\nL -64\n", "t.trace:2: bad address '-64'"},
      {"L +64\n", "t.trace:1: bad address '+64'"},
      {"A\n\nL 0x40zz\n", "t.trace:3: bad address '0x40zz'"},
      {"S 64 12abc\n", "t.trace:1: bad address '12abc'"},
      {"L 0x1ffffffffffffffff\n", "t.trace:1: bad address"},
  };
  for (const auto& c : cases) {
    std::istringstream in(c.text);
    try {
      Trace::parse(in, "t.trace");
      FAIL() << "accepted " << c.text;
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()).rfind(c.where, 0), 0u) << e.what();
    }
  }
}

TEST(Trace, LoadReportsPathOnError) {
  try {
    Trace::load("/no/such/trace.txt");
    FAIL() << "expected exception";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("/no/such/trace.txt"),
              std::string::npos);
  }
}

TEST(TraceFileSource, RelocatesPrivateAddressesPerCore) {
  std::istringstream in("L 0x0\nL 0x40\n");
  TraceFileSource src(Trace::parse(in), /*cores=*/2, /*warps=*/1, 64);
  const Instr a = src.next(0, 0);
  const Instr b = src.next(1, 0);
  EXPECT_EQ(a.lines[0] % 64, 0u);
  EXPECT_NE(a.lines[0], b.lines[0]);  // Different cores, different regions.
}

TEST(TraceFileSource, SharedAddressesIdenticalAcrossCores) {
  std::ostringstream trace_text;
  trace_text << "L 0x" << std::hex << (Trace::kSharedBit | 0x100) << "\n";
  std::istringstream in(trace_text.str());
  TraceFileSource src(Trace::parse(in), 3, 1, 64);
  const Addr a = src.next(0, 0).lines[0];
  const Addr b = src.next(1, 0).lines[0];
  const Addr c = src.next(2, 0).lines[0];
  EXPECT_EQ(a, b);
  EXPECT_EQ(b, c);
}

TEST(TraceFileSource, LoopsAndStaggersWarps) {
  std::istringstream in("A\nL 0x40\nA\nS 0x80\n");
  TraceFileSource src(Trace::parse(in), 1, 2, 64);
  // Warp 1 starts halfway through the 4-entry stream.
  const Instr w0_first = src.next(0, 0);
  const Instr w1_first = src.next(0, 1);
  EXPECT_FALSE(w0_first.is_mem);           // Entry 0: A.
  EXPECT_FALSE(w1_first.is_mem);           // Entry 2: A.
  const Instr w1_second = src.next(0, 1);  // Entry 3: S.
  EXPECT_TRUE(w1_second.is_store);
  // Looping: 4 more fetches of warp 0 wrap to the start.
  src.next(0, 0);
  src.next(0, 0);
  src.next(0, 0);
  const Instr wrapped = src.next(0, 0);
  EXPECT_FALSE(wrapped.is_mem);
}

TEST(TraceFileSource, DrivesFullSimulator) {
  // A read-heavy streaming trace through the whole system.
  std::ostringstream text;
  for (int i = 0; i < 32; ++i) {
    text << "A\nA\nL 0x" << std::hex << (i * 64) << "\n";
  }
  std::istringstream in(text.str());
  TraceFileSource src(Trace::parse(in), 28, 24, 64);
  Config cfg = apply_scheme(Config{}, Scheme::kAdaARI);
  cfg.warmup_cycles = 300;
  cfg.run_cycles = 1500;
  GpgpuSim sim(cfg, &src);
  sim.run_with_warmup();
  const Metrics m = sim.collect();
  EXPECT_GT(m.ipc, 0.1);
  EXPECT_GT(m.flits_by_type[0], 0u);  // Reads reached the network.
}

TEST(MetricsJson, ContainsStableKeys) {
  Metrics m;
  m.cycles = 100;
  m.ipc = 1.5;
  m.mc_stall_cycles = 7;
  const std::string j = metrics_to_json(m);
  EXPECT_NE(j.find("\"cycles\": 100"), std::string::npos);
  EXPECT_NE(j.find("\"ipc\": 1.5"), std::string::npos);
  EXPECT_NE(j.find("\"mc_stall_cycles\": 7"), std::string::npos);
  EXPECT_NE(j.find("\"energy_total_nj\""), std::string::npos);
  EXPECT_EQ(j.front(), '{');
  EXPECT_EQ(j.back(), '}');
}

}  // namespace
}  // namespace arinoc
