/**
 * @file
 * Tests for one-machine fleet replays of the paper catalog (the
 * single-platform case of load::FleetDriver), catalog populations and
 * keep-alive expiry.
 */

#include <gtest/gtest.h>

#include "load/driver.h"

namespace catalyzer::load {
namespace {

using namespace sim::time_literals;

/** One machine running @p strategy with ds-text, the one function of
 *  a catalog population at @p rps, prepared on it. */
struct OneMachine
{
    OneMachine(double rps, platform::BootStrategy strategy,
               bool reuse_idle = false)
        : pop({&apps::appByName("ds-text")}, rps),
          cluster(1, platform::PlacementPolicy::RoundRobin,
                  platform::PlatformConfig{strategy, reuse_idle})
    {
        cluster.prepareEverywhere(*pop.fn(0).profile);
    }

    FleetReport
    run(const TrafficSpec &traffic, const FleetRunConfig &config)
    {
        return FleetDriver(cluster, pop).run(traffic, config);
    }

    Population pop;
    platform::Cluster cluster;
};

/** Unprimed, no autoscaler templates, keep-alive TTL @p ttl. */
FleetRunConfig
plainRun(sim::SimTime ttl = sim::SimTime::zero())
{
    FleetRunConfig config;
    config.primeImages = false;
    config.policy.reactiveRebalance = false;
    config.policy.keepAliveTtl = ttl;
    return config;
}

TrafficSpec
steady(double duration_sec)
{
    TrafficSpec traffic;
    traffic.scenario = Scenario::Steady;
    traffic.durationSec = duration_sec;
    traffic.seed = 1;
    return traffic;
}

TEST(CatalogPopulationTest, ZipfSharesSumToTotal)
{
    const std::vector<const apps::AppProfile *> catalog = {
        &apps::appByName("ds-text"), &apps::appByName("ds-media"),
        &apps::appByName("python-hello"), &apps::appByName("c-hello")};
    const Population pop(catalog, 100.0);
    ASSERT_EQ(pop.size(), 4u);
    EXPECT_EQ(pop.tenantCount(), 1u);

    double total = 0.0;
    for (const FleetFunction &fn : pop.functions()) {
        total += fn.baseRps;
        // Rank follows the given order; profiles are the catalog's own.
        EXPECT_EQ(fn.rank, fn.index);
        EXPECT_EQ(fn.tenant, 0u);
        EXPECT_EQ(fn.profile, catalog[fn.index]);
        EXPECT_EQ(fn.name, catalog[fn.index]->name);
    }
    EXPECT_NEAR(total, 100.0, 1e-9);
    // Rank 0 gets the biggest share.
    EXPECT_GT(pop.fn(0).baseRps, pop.fn(1).baseRps);
    EXPECT_GT(pop.fn(2).baseRps, pop.fn(3).baseRps);
}

TEST(CatalogPopulationTest, EmptyCatalogIsFatal)
{
    EXPECT_EXIT(Population(std::vector<const apps::AppProfile *>{}, 10.0),
                ::testing::ExitedWithCode(1), "at least one function");
}

TEST(OneMachineFleetTest, RunsExpectedRequestCount)
{
    OneMachine one(50.0, platform::BootStrategy::CatalyzerFork);
    const FleetReport report = one.run(steady(4.0), plainRun());

    // Poisson(50/s * 4s) = ~200 requests.
    EXPECT_NEAR(static_cast<double>(report.requests), 200.0, 60.0);
    EXPECT_EQ(report.endToEnd.count(), report.requests);
    EXPECT_EQ(report.boots + report.reuses, report.requests);
}

TEST(OneMachineFleetTest, ClockAdvancesAtLeastDuration)
{
    OneMachine one(5.0, platform::BootStrategy::CatalyzerFork);
    const sim::SimTime start = one.cluster.machine(0).ctx().now();
    one.run(steady(2.0), plainRun());
    // The machine idled between sparse arrivals up to the window end.
    EXPECT_GE((one.cluster.machine(0).ctx().now() - start).toSec(), 2.0);
}

TEST(OneMachineFleetTest, KeepAliveReusesInstances)
{
    OneMachine one(100.0, platform::BootStrategy::CatalyzerWarm,
                   /*reuse_idle=*/true);
    const FleetReport report = one.run(steady(2.0), plainRun());
    // Dense traffic on one function: almost everything is a reuse.
    EXPECT_GT(report.reuses, report.boots);
}

TEST(OneMachineFleetTest, TtlExpiresIdleInstances)
{
    // Sparse: ~500 ms apart, far above the 100 ms TTL.
    OneMachine one(2.0, platform::BootStrategy::CatalyzerWarm,
                   /*reuse_idle=*/true);
    const FleetReport report = one.run(steady(5.0), plainRun(100_ms));
    EXPECT_GT(report.expired, 0u);
    // Expired instances forced fresh boots.
    EXPECT_GT(report.boots, 1u);
}

} // namespace
} // namespace catalyzer::load

namespace catalyzer::platform {
namespace {

using namespace sim::time_literals;

TEST(PlatformTtlTest, ExpireIdleHonorsAge)
{
    sandbox::Machine machine(42);
    PlatformConfig config;
    config.strategy = BootStrategy::CatalyzerWarm;
    config.reuseIdleInstances = true;
    ServerlessPlatform plat(machine, config);
    plat.prepare(apps::appByName("ds-text"));
    plat.invoke("ds-text");
    EXPECT_EQ(plat.idleCount(), 1u);

    // Young instance survives.
    EXPECT_EQ(plat.expireIdle(10_s), 0u);
    machine.ctx().clock().advance(20_s);
    EXPECT_EQ(plat.expireIdle(10_s), 1u);
    EXPECT_EQ(plat.idleCount(), 0u);
}

} // namespace
} // namespace catalyzer::platform
