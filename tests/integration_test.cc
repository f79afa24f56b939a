/**
 * @file
 * Cross-module integration tests: determinism, machine-wide memory
 * conservation, scalability flatness, and end-to-end shape checks that
 * mirror the paper's headline claims.
 */

#include <gtest/gtest.h>

#include "catalyzer/runtime.h"
#include "platform/platform.h"
#include "sandbox/pipelines.h"

namespace catalyzer {
namespace {

using platform::BootStrategy;
using platform::PlatformConfig;
using platform::ServerlessPlatform;
using sandbox::FunctionRegistry;
using sandbox::Machine;
using sandbox::SandboxSystem;

TEST(DeterminismTest, SameSeedSameRun)
{
    auto run = [](std::uint64_t seed) {
        Machine machine(seed);
        FunctionRegistry registry(machine);
        core::CatalyzerRuntime runtime(machine);
        auto &fn = registry.artifactsFor(apps::appByName("c-nginx"));
        sandbox::bootSandbox(SandboxSystem::GVisor, fn);
        runtime.bootCold(fn);
        auto fork = runtime.bootFork(fn);
        fork.instance->invoke();
        return std::make_pair(machine.ctx().now().toNs(),
                              machine.ctx().stats().all());
    };
    const auto a = run(1234);
    const auto b = run(1234);
    EXPECT_EQ(a.first, b.first);
    EXPECT_EQ(a.second, b.second);

    const auto c = run(99);
    EXPECT_NE(a.first, c.first);
}

TEST(MemoryConservationTest, BootDestroyCyclesDoNotLeak)
{
    Machine machine(42);
    FunctionRegistry registry(machine);
    // No zygote prewarm: otherwise warm boots drain the cached pool and
    // the machine-wide frame count drifts down by design.
    core::CatalyzerOptions options;
    options.zygotePrewarm = 0;
    core::CatalyzerRuntime runtime(machine, options);
    auto &fn = registry.artifactsFor(apps::appByName("python-hello"));

    // Warm everything up to steady state: images, template, base
    // mapping and page cache, including the base pages the very first
    // invocations fault in (those persist in the shared Base-EPT by
    // design).
    for (int round = 0; round < 2; ++round) {
        auto fork = runtime.bootFork(fn);
        auto warm = runtime.bootWarm(fn);
        fork.instance->invoke();
        warm.instance->invoke();
    }
    const std::size_t baseline = machine.frames().liveFrames();

    for (int round = 0; round < 5; ++round) {
        auto fork = runtime.bootFork(fn);
        auto warm = runtime.bootWarm(fn);
        fork.instance->invoke();
        warm.instance->invoke();
    }
    // Everything allocated by the instances was released; only the
    // page cache, zygote pool, base mapping and template persist.
    EXPECT_EQ(machine.frames().liveFrames(), baseline);
}

TEST(ScalabilityTest, ForkBootLatencyFlatUnderLoad)
{
    Machine machine(42);
    ServerlessPlatform plat(machine,
                            PlatformConfig{BootStrategy::CatalyzerFork});
    plat.prepare(apps::appByName("ds-text"));

    double first = 0.0, last = 0.0;
    for (int i = 0; i < 200; ++i) {
        const auto rec = plat.invoke("ds-text");
        if (i == 0)
            first = rec.bootLatency.toMs();
        last = rec.bootLatency.toMs();
    }
    EXPECT_EQ(plat.runningCount("ds-text"), 200u);
    // Fig. 15: flat boot latency regardless of running instances.
    EXPECT_NEAR(last, first, first * 0.25);
    EXPECT_LT(last, 10.0);
}

TEST(EndToEndShapeTest, StartupDominatesUnderGVisor)
{
    // Fig. 1's claim: for most functions the execution part of the
    // end-to-end latency under gVisor stays below 30%.
    std::size_t below_30 = 0;
    const auto apps_list = apps::endToEndApps();
    for (const apps::AppProfile *app : apps_list) {
        Machine machine(42);
        ServerlessPlatform plat(machine,
                                PlatformConfig{BootStrategy::GVisor});
        plat.deploy(*app);
        const auto rec = plat.invoke(app->name);
        const double ratio =
            rec.execLatency.toMs() / rec.endToEnd().toMs();
        EXPECT_LT(ratio, 0.66) << app->name; // paper max: 65.54%
        below_30 += ratio < 0.30;
    }
    EXPECT_GE(below_30, 12u);
}

TEST(ZygoteMissTest, WarmBootWorksWithoutPrewarm)
{
    Machine machine(42);
    FunctionRegistry registry(machine);
    core::CatalyzerOptions options;
    options.zygotePrewarm = 0;
    core::CatalyzerRuntime runtime(machine, options);
    auto &fn = registry.artifactsFor(apps::appByName("c-hello"));

    auto miss = runtime.bootWarm(fn); // pool empty: built on the path
    EXPECT_EQ(runtime.zygotes().misses(), 1u);

    runtime.zygotes().prewarm(1);
    auto hit = runtime.bootWarm(fn);
    EXPECT_LT(hit.report.total().toMs(), miss.report.total().toMs());
}

TEST(ServerProfileTest, OrderingHoldsOnTheServerMachine)
{
    Machine machine(42, sim::CostModel::serverProfile());
    FunctionRegistry registry(machine);
    core::CatalyzerRuntime runtime(machine);
    auto &fn = registry.artifactsFor(apps::appByName("ec-report"));

    auto gvr = sandbox::bootSandbox(SandboxSystem::GVisorRestore, fn);
    auto fork = runtime.bootFork(fn);
    EXPECT_LT(fork.report.total().toMs(), 2.5);
    EXPECT_GT(gvr.report.total().toMs() / fork.report.total().toMs(),
              50.0);
}

TEST(AslrOptionTest, SforkChildrenGetDistinctLayouts)
{
    Machine machine(42);
    FunctionRegistry registry(machine);
    core::CatalyzerOptions options;
    options.aslrRerandomizeOnSfork = true;
    core::CatalyzerRuntime runtime(machine, options);
    auto &fn = registry.artifactsFor(apps::appByName("c-hello"));

    auto a = runtime.bootFork(fn);
    auto b = runtime.bootFork(fn);
    EXPECT_NE(a.instance->proc().aslrSalt(),
              b.instance->proc().aslrSalt());
    // The mitigation costs time but stays sub-ms territory overall.
    EXPECT_LT(a.report.total().toMs(), 2.5);
}

TEST(RestartConsistencyTest, WarmAfterTeardownStillShares)
{
    Machine machine(42);
    ServerlessPlatform plat(machine,
                            PlatformConfig{BootStrategy::CatalyzerWarm});
    plat.prepare(apps::appByName("ds-media"));
    plat.invoke("ds-media");
    plat.invoke("ds-media");
    const auto base =
        plat.registry().artifactsFor(apps::appByName("ds-media"))
            .sharedBase;
    ASSERT_NE(base, nullptr);
    const std::size_t resident_before = base->residentPages();

    plat.teardown("ds-media");
    // The Base-EPT outlives the instances; the next boot reuses it.
    plat.invoke("ds-media");
    EXPECT_GE(base->residentPages(), resident_before);
}

} // namespace
} // namespace catalyzer
