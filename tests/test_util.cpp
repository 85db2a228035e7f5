// Unit tests for the util substrate: RNG determinism and distribution
// sanity, statistics accumulators, tables and CLI parsing.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace bas {
namespace {

TEST(Rng, DeterministicForEqualSeeds) {
  util::Rng a(42);
  util::Rng b(42);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, StreamMatchesKnownValues) {
  // Every seeded experiment and every golden CSV depends on these exact
  // words; a change to the seeding, the generator or the hashes must
  // show up here before it shows up as a moved golden.
  util::Rng rng(42);
  EXPECT_EQ(rng.next_u64(), 0x15780b2e0c2ec716ULL);
  EXPECT_EQ(rng.next_u64(), 0x6104d9866d113a7eULL);
  EXPECT_EQ(rng.next_u64(), 0xae17533239e499a1ULL);
  EXPECT_EQ(util::Rng().next_u64(), 0x422ea740d0977210ULL);
  EXPECT_EQ(util::Rng::mix(1234), 0xbb0cf61b2f181cdbULL);
  EXPECT_EQ(util::Rng::hash_combine(1234, 5678), 0xcf534b94b250a4baULL);
  util::Rng u(7);
  EXPECT_EQ(u.uniform(), 0.7005764821796896);
  EXPECT_EQ(u.uniform(2.0, 5.0), 2.8362536884213529);
}

TEST(Rng, DifferentSeedsDiverge) {
  util::Rng a(1);
  util::Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) {
      ++equal;
    }
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, UniformInUnitInterval) {
  util::Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  util::Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform(0.2, 1.0);
    ASSERT_GE(u, 0.2);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanApproximatelyCentered) {
  util::Rng rng(99);
  util::Accumulator acc;
  for (int i = 0; i < 200000; ++i) {
    acc.add(rng.uniform(0.2, 1.0));
  }
  EXPECT_NEAR(acc.mean(), 0.6, 0.01);
}

TEST(Rng, UniformIntCoversInclusiveRange) {
  util::Rng rng(3);
  std::map<int, int> histogram;
  for (int i = 0; i < 10000; ++i) {
    const int v = rng.uniform_int(2, 5);
    ASSERT_GE(v, 2);
    ASSERT_LE(v, 5);
    ++histogram[v];
  }
  EXPECT_EQ(histogram.size(), 4u);
  for (const auto& [value, count] : histogram) {
    EXPECT_GT(count, 2000) << "value " << value << " undersampled";
  }
}

TEST(Rng, BernoulliExtremes) {
  util::Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliRate) {
  util::Rng rng(6);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    hits += rng.bernoulli(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ExponentialMean) {
  util::Rng rng(8);
  util::Accumulator acc;
  for (int i = 0; i < 200000; ++i) {
    acc.add(rng.exponential(2.5));
  }
  EXPECT_NEAR(acc.mean(), 2.5, 0.05);
}

TEST(Rng, HashCombineOrderSensitive) {
  EXPECT_NE(util::Rng::hash_combine(1, 2), util::Rng::hash_combine(2, 1));
  EXPECT_EQ(util::Rng::hash_combine(1, 2), util::Rng::hash_combine(1, 2));
}

TEST(Accumulator, BasicMoments) {
  util::Accumulator acc;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    acc.add(v);
  }
  EXPECT_EQ(acc.count(), 8u);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  EXPECT_DOUBLE_EQ(acc.min(), 2.0);
  EXPECT_DOUBLE_EQ(acc.max(), 9.0);
  EXPECT_NEAR(acc.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(Accumulator, EmptyIsZero) {
  util::Accumulator acc;
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_EQ(acc.mean(), 0.0);
  EXPECT_EQ(acc.variance(), 0.0);
}

TEST(Table, RendersAlignedColumns) {
  util::Table t({"name", "value"});
  t.add_row({"alpha", util::Table::num(1.5, 1)});
  t.add_row({"b", "22"});
  const std::string out = t.str();
  EXPECT_NE(out.find("alpha  1.5"), std::string::npos);
  EXPECT_NE(out.find("-----"), std::string::npos);
}

TEST(Table, NumFormatsPrecision) {
  EXPECT_EQ(util::Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(util::Table::num(static_cast<long long>(42)), "42");
}

TEST(Cli, ParsesValuesAndFlags) {
  const char* argv[] = {"prog", "--sets", "25", "--full", "--seed=9"};
  util::Cli cli(5, argv,
                {{"sets", "10"}, {"full", "false"}, {"seed", "1"}});
  EXPECT_EQ(cli.get_int("sets"), 25);
  EXPECT_TRUE(cli.get_flag("full"));
  EXPECT_EQ(cli.get_u64("seed"), 9u);
}

TEST(Cli, ValueOptionHoldingZeroOrOneStillConsumesItsArgument) {
  // Regression: flag-ness comes from the declared default ("false" /
  // "true"), never from the current value, so --seed 7 must not be
  // misread as a bare flag just because the default is "1".
  const char* argv[] = {"prog", "--seed", "7", "--full"};
  util::Cli cli(4, argv, {{"seed", "1"}, {"full", "false"}});
  EXPECT_EQ(cli.get_u64("seed"), 7u);
  EXPECT_TRUE(cli.get_flag("full"));
}

TEST(Cli, DefaultsApply) {
  const char* argv[] = {"prog"};
  util::Cli cli(1, argv, {{"sets", "10"}});
  EXPECT_EQ(cli.get_int("sets"), 10);
}

TEST(Cli, UnknownOptionThrows) {
  const char* argv[] = {"prog", "--nope", "1"};
  EXPECT_THROW(util::Cli(3, argv, {{"sets", "10"}}), std::runtime_error);
}

TEST(Cli, PositionalArgumentThrowsNamingIt) {
  const char* argv[] = {"prog", "100", "--sets", "3"};
  try {
    util::Cli(4, argv, {{"sets", "10"}});
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("'100'"), std::string::npos);
  }
}

TEST(Cli, NumericGettersRejectGarbage) {
  const auto cli_with = [](const char* sets, const char* seed,
                           const char* rate) {
    const char* argv[] = {"prog", "--sets", sets, "--seed", seed,
                          "--rate", rate};
    return util::Cli(7, argv, {{"sets", "1"}, {"seed", "1"}, {"rate", "1"}});
  };
  const auto good = cli_with("-3", "18446744073709551615", "2.5e-1");
  EXPECT_EQ(good.get_int("sets"), -3);
  EXPECT_EQ(good.get_u64("seed"), 18446744073709551615ULL);
  EXPECT_DOUBLE_EQ(good.get_double("rate"), 0.25);
  for (const char* bad : {"abc", "1x", "", " 1", "+1", "1.5"}) {
    EXPECT_THROW(cli_with(bad, "1", "1").get_int("sets"),
                 std::invalid_argument)
        << bad;
  }
  for (const char* bad : {"-1", "+1", "1x", "18446744073709551616"}) {
    EXPECT_THROW(cli_with("1", bad, "1").get_u64("seed"),
                 std::invalid_argument)
        << bad;
  }
  for (const char* bad : {"fast", "1.5s", ""}) {
    EXPECT_THROW(cli_with("1", "1", bad).get_double("rate"),
                 std::invalid_argument)
        << bad;
  }
  try {
    cli_with("1x", "1", "1").get_int("sets");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "option --sets expects an integer, got '1x'");
  }
}

TEST(Cli, ParseIntHonoursRange) {
  EXPECT_EQ(util::parse_int("n", "7", 0, 7), 7);
  EXPECT_THROW(util::parse_int("n", "8", 0, 7), std::invalid_argument);
  EXPECT_THROW(util::parse_int("n", "-1", 0, 7), std::invalid_argument);
}

}  // namespace
}  // namespace bas
