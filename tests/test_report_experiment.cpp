// Table formatting and the experiment config helpers.
#include <gtest/gtest.h>

#include <cstdlib>

#include "core/experiment.hpp"
#include "core/report.hpp"

namespace arinoc {
namespace {

TEST(TextTable, AlignsColumns) {
  TextTable t({"name", "value"});
  t.add_row({"short", "1"});
  t.add_row({"a-much-longer-name", "22"});
  const std::string s = t.to_string();
  // Header, separator, two rows.
  EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), 4);
  // Every line is padded to the same width (aligned columns).
  std::vector<std::size_t> lengths;
  std::size_t pos = 0;
  while (pos < s.size()) {
    const std::size_t nl = s.find('\n', pos);
    lengths.push_back(nl - pos);
    pos = nl + 1;
  }
  for (std::size_t len : lengths) EXPECT_EQ(len, lengths[0]);
  EXPECT_NE(s.find("a-much-longer-name"), std::string::npos);
}

TEST(TextTable, HeaderFirst) {
  TextTable t({"h1", "h2"});
  t.add_row({"r", "s"});
  const std::string s = t.to_string();
  EXPECT_LT(s.find("h1"), s.find("r"));
}

TEST(Fmt, FixedPrecision) {
  EXPECT_EQ(fmt(1.23456, 2), "1.23");
  EXPECT_EQ(fmt(2.0, 0), "2");
}

TEST(FmtPct, Percentage) {
  EXPECT_EQ(fmt_pct(0.5, 1), "50.0%");
  EXPECT_EQ(fmt_pct(0.123, 0), "12%");
}

TEST(Experiment, BaseConfigIsTable1) {
  const Config cfg = make_base_config();
  EXPECT_EQ(cfg.num_ccs(), 28u);
  EXPECT_EQ(cfg.num_mcs, 8u);
  EXPECT_EQ(cfg.num_vcs, 4u);
  EXPECT_EQ(cfg.validate(), "");
}

TEST(Experiment, EnvOverridesRunLength) {
  setenv("ARINOC_RUN_CYCLES", "1234", 1);
  setenv("ARINOC_WARMUP_CYCLES", "56", 1);
  const Config cfg = apply_env_overrides(Config{});
  EXPECT_EQ(cfg.run_cycles, 1234u);
  EXPECT_EQ(cfg.warmup_cycles, 56u);
  unsetenv("ARINOC_RUN_CYCLES");
  unsetenv("ARINOC_WARMUP_CYCLES");
}

TEST(Experiment, EnvRunLengthRejectsMalformedValues) {
  // A sign, trailing text or a non-number exits 2 naming the variable
  // instead of running zero, a truncated or a wrapped-around length.
  for (const char* bad : {"abc", "12abc", "-5"}) {
    EXPECT_EXIT(
        {
          setenv("ARINOC_RUN_CYCLES", bad, 1);
          apply_env_overrides(Config{});
        },
        testing::ExitedWithCode(2), "ARINOC_RUN_CYCLES")
        << bad;
    EXPECT_EXIT(
        {
          setenv("ARINOC_WARMUP_CYCLES", bad, 1);
          apply_env_overrides(Config{});
        },
        testing::ExitedWithCode(2), "ARINOC_WARMUP_CYCLES")
        << bad;
  }
}

}  // namespace
}  // namespace arinoc
