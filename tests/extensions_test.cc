/**
 * @file
 * Tests for the extension features: the gVisor-ptrace platform variant
 * and trace-driven workloads.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "load/driver.h"
#include "sandbox/pipelines.h"

namespace catalyzer {
namespace {

using platform::BootStrategy;
using platform::PlatformConfig;
using platform::ServerlessPlatform;
using sandbox::FunctionRegistry;
using sandbox::Machine;
using sandbox::SandboxSystem;

TEST(GVisorPtraceTest, NoKvmButSlowerAppInit)
{
    Machine m1(42);
    FunctionRegistry r1(m1);
    const auto kvm = sandbox::bootSandbox(
        SandboxSystem::GVisor,
        r1.artifactsFor(apps::appByName("java-hello")));

    Machine m2(42);
    FunctionRegistry r2(m2);
    const auto ptrace = sandbox::bootSandbox(
        SandboxSystem::GVisorPtrace,
        r2.artifactsFor(apps::appByName("java-hello")));

    // No KVM ioctls on the ptrace platform.
    EXPECT_EQ(m2.ctx().stats().value("kvm.create_vm"), 0);
    EXPECT_GT(m1.ctx().stats().value("kvm.create_vm"), 0);
    // Sandbox construction is cheaper without virtualization setup...
    EXPECT_LT(ptrace.report.sandboxInit().toMs(),
              kvm.report.sandboxInit().toMs());
    // ...but interception makes application init slower overall.
    EXPECT_GT(ptrace.report.appInit().toMs(),
              kvm.report.appInit().toMs());
    EXPECT_STREQ(sandbox::sandboxSystemName(SandboxSystem::GVisorPtrace),
                 "gVisor-ptrace");
}

/** Replay @p tape over 2 s on one fork-boot machine with ds-text
 *  (function 0) and ds-media (function 1) prepared on it. */
struct TraceReplay
{
    TraceReplay()
        : population({&apps::appByName("ds-text"),
                      &apps::appByName("ds-media")},
                     1.0),
          cluster(1, platform::PlacementPolicy::RoundRobin,
                  PlatformConfig{BootStrategy::CatalyzerFork})
    {
        for (const load::FleetFunction &fn : population.functions())
            cluster.prepareEverywhere(*fn.profile);
    }

    load::FleetReport
    run(const std::vector<load::FleetArrival> &tape)
    {
        load::FleetRunConfig config;
        config.primeImages = false;
        config.policy.reactiveRebalance = false;
        config.policy.keepAliveTtl = sim::SimTime::zero();
        return load::FleetDriver(cluster, population)
            .run(tape, 2.0, config);
    }

    load::Population population;
    platform::Cluster cluster;
};

TEST(TraceWorkloadTest, ReplaysExactSchedule)
{
    TraceReplay replay;
    const load::FleetReport report = replay.run({
        {0.10, 0},
        {0.20, 1},
        {0.25, 0},
        {1.50, 0},
    });
    EXPECT_EQ(report.requests, 4u);
    // Fork boots without keep-alive retain one instance per request.
    ServerlessPlatform &plat = replay.cluster.platform(0);
    EXPECT_EQ(plat.runningCount("ds-text"), 3u);
    EXPECT_EQ(plat.runningCount("ds-media"), 1u);
    // The clock followed the trace to at least the last arrival.
    EXPECT_GT(replay.cluster.machine(0).ctx().now().toSec(), 1.5);
}

TEST(TraceWorkloadTest, UnsortedTraceIsSorted)
{
    TraceReplay unsorted, sorted;
    const load::FleetReport a = unsorted.run({{0.5, 0}, {0.1, 0}, {0.3, 0}});
    const load::FleetReport b = sorted.run({{0.1, 0}, {0.3, 0}, {0.5, 0}});
    EXPECT_EQ(a.requests, 3u);
    // Same replay as the time-ordered tape, byte for byte.
    std::ostringstream ja, jb;
    a.writeJson(ja);
    b.writeJson(jb);
    EXPECT_EQ(ja.str(), jb.str());
}

TEST(TraceWorkloadTest, ArrivalOutsideTheTapeIsFatal)
{
    // Past the 2 s window, and a function the population lacks.
    EXPECT_EXIT(TraceReplay().run({{0.1, 0}, {2.5, 0}}),
                ::testing::ExitedWithCode(1), "outside the run window");
    EXPECT_EXIT(TraceReplay().run({{0.1, 2}}),
                ::testing::ExitedWithCode(1), "names function 2");
}

} // namespace
} // namespace catalyzer
