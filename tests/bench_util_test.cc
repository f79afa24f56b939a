/**
 * @file
 * Tests for the bench harnesses' helpers: environment-knob parsing (a
 * malformed or negative value must stop the run and name the variable,
 * never wrap, truncate or read as zero) and sweep step lists.
 */

#include <gtest/gtest.h>

#include "bench_util.h"

namespace catalyzer::bench {
namespace {

TEST(BenchEnvTest, ValidValuesParse)
{
    EXPECT_EQ(parseSizeVar("FLEET_MACHINES", "4", 8), 4u);
    EXPECT_EQ(parseSizeVar("FLEET_MACHINES", "0", 8), 0u);
    EXPECT_EQ(parseSizeVar("FLEET_FUNCTIONS", "1200", 1), 1200u);
    EXPECT_DOUBLE_EQ(parseDoubleVar("FLEET_RPS", "400", 800.0), 400.0);
    EXPECT_DOUBLE_EQ(parseDoubleVar("FLEET_RPS", "1e3", 800.0), 1000.0);
    EXPECT_DOUBLE_EQ(parseDoubleVar("FLEET_DURATION_SEC", "0.25", 15.0),
                     0.25);
}

TEST(BenchEnvTest, UnsetOrEmptyFallsBack)
{
    EXPECT_EQ(parseSizeVar("FLEET_MACHINES", nullptr, 8), 8u);
    EXPECT_EQ(parseSizeVar("FLEET_MACHINES", "", 8), 8u);
    EXPECT_DOUBLE_EQ(parseDoubleVar("FLEET_RPS", nullptr, 800.0), 800.0);
    EXPECT_DOUBLE_EQ(parseDoubleVar("FLEET_RPS", "", 800.0), 800.0);
}

TEST(BenchEnvTest, NegativeSizeIsFatal)
{
    EXPECT_EXIT(parseSizeVar("FLEET_MACHINES", "-1", 8),
                ::testing::ExitedWithCode(1), "FLEET_MACHINES");
}

TEST(BenchEnvTest, ExponentSizeIsFatal)
{
    EXPECT_EXIT(parseSizeVar("FLEET_FUNCTIONS", "1e3", 1200),
                ::testing::ExitedWithCode(1), "FLEET_FUNCTIONS");
}

TEST(BenchEnvTest, TrailingGarbageIsFatal)
{
    EXPECT_EXIT(parseSizeVar("CHAIN_RUNS", "12abc", 40),
                ::testing::ExitedWithCode(1), "CHAIN_RUNS");
    EXPECT_EXIT(parseDoubleVar("FLEET_RPS", "12abc", 800.0),
                ::testing::ExitedWithCode(1), "FLEET_RPS");
}

TEST(BenchEnvTest, NonNumericOrNegativeNumberIsFatal)
{
    EXPECT_EXIT(parseDoubleVar("FLEET_RPS", "abc", 800.0),
                ::testing::ExitedWithCode(1), "FLEET_RPS");
    EXPECT_EXIT(parseDoubleVar("FLEET_RPS", "-1", 800.0),
                ::testing::ExitedWithCode(1), "FLEET_RPS");
    EXPECT_EXIT(parseDoubleVar("FLEET_RPS", "inf", 800.0),
                ::testing::ExitedWithCode(1), "FLEET_RPS");
}

TEST(BenchSweepTest, StepsAreTenthsOfTheMaximumAndAtLeastOne)
{
    EXPECT_EQ(sweepSteps(1000),
              (std::vector<std::size_t>{0, 100, 200, 300, 400, 500, 600,
                                        700, 800, 900, 1000}));
    EXPECT_EQ(sweepSteps(25),
              (std::vector<std::size_t>{0, 2, 4, 6, 8, 10, 12, 14, 16, 18,
                                        20, 22, 24}));
    // Below ten instances a tenth rounds to zero; the step stays one.
    EXPECT_EQ(sweepSteps(1), (std::vector<std::size_t>{0, 1}));
    EXPECT_EQ(sweepSteps(9), (std::vector<std::size_t>{0, 1, 2, 3, 4, 5,
                                                       6, 7, 8, 9}));
}

} // namespace
} // namespace catalyzer::bench
