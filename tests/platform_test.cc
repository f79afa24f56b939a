/**
 * @file
 * Tests for the serverless platform: gateway, strategies, pools.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "platform/platform.h"

namespace catalyzer::platform {
namespace {

using sandbox::Machine;

TEST(PlatformTest, InvokeBootsAndExecutes)
{
    Machine machine(42);
    ServerlessPlatform platform(machine,
                                PlatformConfig{BootStrategy::GVisor});
    platform.deploy(apps::appByName("c-hello"));
    const InvocationRecord rec = platform.invoke("c-hello");
    EXPECT_FALSE(rec.reusedInstance);
    EXPECT_GT(rec.bootLatency.toMs(), 50.0);
    EXPECT_GT(rec.execLatency.toNs(), 0);
    EXPECT_DOUBLE_EQ(rec.gatewayLatency.toMs(),
                     machine.ctx().costs().rpcDelivery.toMs());
    EXPECT_EQ(rec.endToEnd().toNs(),
              (rec.gatewayLatency + rec.bootLatency +
               rec.execLatency).toNs());
    EXPECT_EQ(platform.totalInstances(), 1u);
}

TEST(PlatformTest, ReuseIdleInstancesSkipsBoot)
{
    Machine machine(42);
    PlatformConfig config;
    config.strategy = BootStrategy::GVisor;
    config.reuseIdleInstances = true;
    ServerlessPlatform platform(machine, config);
    platform.deploy(apps::appByName("c-hello"));

    const InvocationRecord first = platform.invoke("c-hello");
    const InvocationRecord second = platform.invoke("c-hello");
    EXPECT_FALSE(first.reusedInstance);
    EXPECT_TRUE(second.reusedInstance);
    EXPECT_EQ(second.bootLatency.toNs(), 0);
    EXPECT_EQ(platform.totalInstances(), 1u);
}

TEST(PlatformTest, CatalyzerForkStrategy)
{
    Machine machine(42);
    ServerlessPlatform platform(
        machine, PlatformConfig{BootStrategy::CatalyzerFork});
    platform.prepare(apps::appByName("ds-text")); // builds the template

    const InvocationRecord rec = platform.invoke("ds-text");
    EXPECT_EQ(rec.tierServed, "sfork");
    EXPECT_LT(rec.bootLatency.toMs(), 2.0);
}

TEST(PlatformTest, AutoStrategyEscalates)
{
    Machine machine(42);
    ServerlessPlatform platform(
        machine, PlatformConfig{BootStrategy::CatalyzerAuto});
    platform.deploy(apps::appByName("python-hello"));

    // No template, no base: first boot is a cold restore.
    const InvocationRecord first = platform.invoke("python-hello");
    EXPECT_EQ(first.tierServed, "cold");

    // A base now exists: warm restore.
    const InvocationRecord second = platform.invoke("python-hello");
    EXPECT_EQ(second.tierServed, "warm");

    // With a template prepared: fork boot.
    platform.prepare(apps::appByName("python-hello"));
    const InvocationRecord third = platform.invoke("python-hello");
    EXPECT_EQ(third.tierServed, "sfork");
    EXPECT_LT(third.bootLatency.toMs(), second.bootLatency.toMs());
}

TEST(PlatformTest, InstanceBookkeepingAndTeardown)
{
    Machine machine(42);
    ServerlessPlatform platform(
        machine, PlatformConfig{BootStrategy::CatalyzerWarm});
    platform.prepare(apps::appByName("ds-media"));
    for (int i = 0; i < 5; ++i)
        platform.invoke("ds-media");
    EXPECT_EQ(platform.runningCount("ds-media"), 5u);
    EXPECT_EQ(platform.instancesOf("ds-media").size(), 5u);

    const std::size_t frames_before = machine.frames().liveFrames();
    platform.teardown("ds-media");
    EXPECT_EQ(platform.runningCount("ds-media"), 0u);
    EXPECT_LT(machine.frames().liveFrames(), frames_before);
}

TEST(PlatformTest, RetainDisabledDropsInstances)
{
    Machine machine(42);
    PlatformConfig config;
    config.strategy = BootStrategy::CatalyzerWarm;
    config.retainInstances = false;
    ServerlessPlatform platform(machine, config);
    platform.prepare(apps::appByName("ds-text"));
    platform.invoke("ds-text");
    EXPECT_EQ(platform.totalInstances(), 0u);
}

TEST(PlatformTest, InstanceCountTracksEveryPoolChange)
{
    const std::vector<std::string> fns = {"c-hello", "ds-text",
                                          "python-hello"};
    struct Mode
    {
        bool reuse;
        bool retain;
    };
    for (const Mode mode : {Mode{true, true}, Mode{false, true},
                            Mode{true, false}, Mode{false, false}}) {
        SCOPED_TRACE(testing::Message() << "reuse " << mode.reuse
                                        << " retain " << mode.retain);
        Machine machine(42);
        PlatformConfig config;
        config.strategy = BootStrategy::CatalyzerAuto;
        config.reuseIdleInstances = mode.reuse;
        config.retainInstances = mode.retain;
        ServerlessPlatform platform(machine, config);
        for (const std::string &fn : fns)
            platform.deploy(apps::appByName(fn));

        int step = 0;
        const auto expectInvariant = [&] {
            std::size_t sum = 0;
            for (const std::string &fn : fns)
                sum += platform.runningCount(fn);
            EXPECT_EQ(platform.totalInstances(), sum) << "step " << step;
            ++step;
        };
        // Invokes (first boots, keep-alive reuses, interleaved
        // functions), expiry, teardown of one function, then a refill.
        for (int i = 0; i < 6; ++i) {
            platform.invoke(fns[static_cast<std::size_t>(i) % 2]);
            expectInvariant();
        }
        platform.invoke("python-hello");
        expectInvariant();
        platform.expireIdle(sim::SimTime::zero());
        expectInvariant();
        platform.invoke("ds-text");
        expectInvariant();
        platform.teardown("ds-text");
        expectInvariant();
        platform.teardown("ds-text"); // already gone
        expectInvariant();
        for (int i = 0; i < 3; ++i) {
            platform.invoke(fns[static_cast<std::size_t>(i)]);
            expectInvariant();
        }
        platform.expireIdle(sim::SimTime::zero());
        expectInvariant();
        for (const std::string &fn : fns)
            platform.teardown(fn);
        expectInvariant();
        EXPECT_EQ(platform.totalInstances(), 0u);
    }
}

TEST(PlatformTest, StrategyNames)
{
    EXPECT_STREQ(bootStrategyName(BootStrategy::CatalyzerFork),
                 "Catalyzer-sfork");
    EXPECT_STREQ(bootStrategyName(BootStrategy::GVisorRestore),
                 "gVisor-restore");
}

TEST(PlatformTest, EndToEndSpeedupOnDeathStar)
{
    // Fig. 13a's shape: 35-67x lower boot for sfork vs gVisor.
    Machine m_gv(42);
    ServerlessPlatform gv(m_gv, PlatformConfig{BootStrategy::GVisor});
    gv.deploy(apps::appByName("ds-compose"));
    const InvocationRecord gv_rec = gv.invoke("ds-compose");

    Machine m_cat(42);
    ServerlessPlatform cat(m_cat,
                           PlatformConfig{BootStrategy::CatalyzerFork});
    cat.prepare(apps::appByName("ds-compose"));
    const InvocationRecord cat_rec = cat.invoke("ds-compose");

    const double boot_speedup =
        gv_rec.bootLatency.toMs() / cat_rec.bootLatency.toMs();
    EXPECT_GT(boot_speedup, 30.0);
    // The first request pays the on-demand costs (COW faults, lazy
    // reconnects) but stays within a few ms of the fresh instance.
    EXPECT_LT(cat_rec.execLatency.toMs(),
              gv_rec.execLatency.toMs() * 4.5);
    // End to end, Catalyzer still wins by a wide margin.
    EXPECT_GT(gv_rec.endToEnd().toMs() / cat_rec.endToEnd().toMs(),
              10.0);
}

} // namespace
} // namespace catalyzer::platform
