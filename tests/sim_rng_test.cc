/**
 * @file
 * Unit tests for the deterministic RNG.
 */

#include <gtest/gtest.h>

#include "sim/rng.h"

namespace catalyzer::sim {
namespace {

TEST(RngTest, DeterministicForSameSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next64(), b.next64());
}

TEST(RngTest, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i) {
        if (a.next64() == b.next64())
            ++same;
    }
    EXPECT_LT(same, 2);
}

TEST(RngTest, UniformInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(RngTest, UniformRangeRespectsBounds)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform(5.0, 9.0);
        EXPECT_GE(u, 5.0);
        EXPECT_LT(u, 9.0);
    }
}

TEST(RngTest, UniformIntBounds)
{
    Rng rng(11);
    EXPECT_EQ(rng.uniformInt(0), 0u);
    bool hit_low = false, hit_high = false;
    for (int i = 0; i < 5000; ++i) {
        const auto v = rng.uniformInt(10);
        EXPECT_LT(v, 10u);
        hit_low |= v == 0;
        hit_high |= v == 9;
    }
    EXPECT_TRUE(hit_low);
    EXPECT_TRUE(hit_high);
}

TEST(RngTest, ChanceMatchesProbability)
{
    Rng rng(13);
    int hits = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        hits += rng.chance(0.25) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.02);
}

TEST(RngTest, ExponentialHasRequestedMean)
{
    Rng rng(17);
    double sum = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        sum += rng.exponential(4.0);
    EXPECT_NEAR(sum / n, 4.0, 0.15);
}

TEST(RngTest, HeavyTailStaysInBounds)
{
    Rng rng(19);
    for (int i = 0; i < 5000; ++i) {
        const double v = rng.heavyTail(1.0, 30.0);
        EXPECT_GE(v, 0.99);
        EXPECT_LE(v, 30.01);
    }
}

TEST(RngTest, HeavyTailIsSkewedTowardLow)
{
    Rng rng(23);
    int low = 0;
    const int n = 10000;
    for (int i = 0; i < n; ++i)
        low += rng.heavyTail(1.0, 30.0) < 3.0 ? 1 : 0;
    // A bounded Pareto with alpha=1.5 concentrates mass near the floor.
    EXPECT_GT(low, n / 2);
}

} // namespace
} // namespace catalyzer::sim
