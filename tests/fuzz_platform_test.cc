/**
 * @file
 * Randomized operation fuzzing: long random sequences of platform
 * operations (invoke, teardown, expire, rebalance, strategy-specific
 * preparation) must never panic, and the platform's bookkeeping
 * invariants must hold after every step.
 */

#include <gtest/gtest.h>

#include "load/driver.h"
#include "platform/policy.h"

namespace catalyzer::platform {
namespace {

using sandbox::Machine;
using namespace sim::time_literals;

class PlatformFuzz
    : public ::testing::TestWithParam<std::tuple<std::uint64_t,
                                                 BootStrategy>>
{};

TEST_P(PlatformFuzz, RandomOperationSequenceHoldsInvariants)
{
    const auto [seed, strategy] = GetParam();
    Machine machine(seed);
    PlatformConfig config;
    config.strategy = strategy;
    config.reuseIdleInstances = (seed % 2) == 0;
    ServerlessPlatform plat(machine, config);
    BootPolicyManager policy(plat, PolicyConfig{256u << 20, 3});

    const std::vector<std::string> functions = {
        "ds-text", "ds-media", "python-hello", "c-hello",
    };
    for (const auto &fn : functions)
        plat.deploy(apps::appByName(fn));

    sim::Rng rng(seed * 7919);
    std::size_t invocations = 0;
    for (int step = 0; step < 120; ++step) {
        const auto &fn = functions[rng.uniformInt(functions.size())];
        const double dice = rng.uniform();
        if (dice < 0.62) {
            const InvocationRecord rec = policy.invoke(fn);
            ++invocations;
            EXPECT_GE(rec.endToEnd().toNs(), rec.execLatency.toNs());
            EXPECT_GT(rec.execLatency.toNs(), 0);
        } else if (dice < 0.72) {
            plat.teardown(fn);
        } else if (dice < 0.82) {
            plat.expireIdle(sim::SimTime::milliseconds(
                rng.uniform(1.0, 2000.0)));
        } else if (dice < 0.92) {
            policy.rebalance();
        } else {
            plat.prepare(apps::appByName(fn));
        }

        // Invariants after every operation.
        std::size_t per_fn = 0;
        for (const auto &fn2 : functions)
            per_fn += plat.runningCount(fn2);
        EXPECT_EQ(per_fn, plat.totalInstances());
    }
    EXPECT_EQ(machine.ctx().stats().value("platform.invocations"),
              static_cast<std::int64_t>(invocations));

    // Cleanup releases every instance's memory; only page cache,
    // images, bases, templates and zygotes remain.
    const std::size_t frames_with_instances =
        machine.frames().liveFrames();
    for (const auto &fn : functions)
        plat.teardown(fn);
    EXPECT_LE(machine.frames().liveFrames(), frames_with_instances);
    EXPECT_EQ(plat.totalInstances(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndStrategies, PlatformFuzz,
    ::testing::Combine(
        ::testing::Values(1u, 17u, 4242u),
        ::testing::Values(BootStrategy::GVisor,
                          BootStrategy::GVisorRestore,
                          BootStrategy::CatalyzerCold,
                          BootStrategy::CatalyzerWarm,
                          BootStrategy::CatalyzerFork,
                          BootStrategy::CatalyzerAuto)));

/** A one-machine fleet replay also survives heavy churn with TTL
 *  expiry. */
TEST(WorkloadFuzzTest, DenseMixWithTinyTtl)
{
    const load::Population pop(apps::appsInSuite(apps::Suite::DeathStar),
                               120.0, 1.2);
    PlatformConfig config;
    config.strategy = BootStrategy::CatalyzerAuto;
    config.reuseIdleInstances = true;
    Cluster cluster(1, PlacementPolicy::RoundRobin, config, {},
                    sim::CostModel{}, /*seed=*/99);

    load::TrafficSpec traffic;
    traffic.durationSec = 3.0;
    traffic.seed = 5;
    load::FleetRunConfig run;
    run.primeImages = false;
    run.policy.keepAliveTtl = 40_ms;
    const load::FleetReport report =
        load::FleetDriver(cluster, pop).run(traffic, run);
    EXPECT_GT(report.requests, 100u);
    EXPECT_GT(report.expired, 0u);
    EXPECT_EQ(report.requests, report.boots + report.reuses);
}

} // namespace
} // namespace catalyzer::platform
