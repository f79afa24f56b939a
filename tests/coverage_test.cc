/**
 * @file
 * Focused tests for smaller behaviours: guest pending fds,
 * overlay log writes during execution, cost-model profiles, logging
 * levels and miscellaneous name tables.
 */

#include <gtest/gtest.h>

#include "catalyzer/runtime.h"
#include "sandbox/pipelines.h"
#include "sim/logging.h"

namespace catalyzer {
namespace {

using sandbox::FunctionRegistry;
using sandbox::Machine;
using sandbox::SandboxSystem;

TEST(FdMirrorTest, RestoredInstanceHasPendingFds)
{
    Machine machine(42);
    FunctionRegistry registry(machine);
    core::CatalyzerRuntime runtime(machine);
    auto &fn = registry.artifactsFor(apps::appByName("c-nginx"));

    auto cold = runtime.bootCold(fn);
    const auto &guest = cold.instance->guest();
    // Every checkpointed connection's fd is pending: on-demand
    // reconnection passed valid fd numbers whose backing connections
    // are not re-opened yet.
    EXPECT_EQ(cold.instance->guest().pendingFds(), guest.io().count());
    EXPECT_GT(guest.io().count(), 0u);
}

TEST(FdMirrorTest, EagerRestoreHasNoPendingFds)
{
    Machine machine(42);
    FunctionRegistry registry(machine);
    auto &fn = registry.artifactsFor(apps::appByName("c-nginx"));
    auto boot = sandbox::bootSandbox(SandboxSystem::GVisorRestore, fn);
    EXPECT_EQ(boot.instance->guest().pendingFds(), 0u);
    EXPECT_GT(boot.instance->guest().io().count(), 0u);
}

TEST(FdMirrorTest, FreshBootFdsAllConnected)
{
    Machine machine(42);
    FunctionRegistry registry(machine);
    auto &fn = registry.artifactsFor(apps::appByName("python-hello"));
    auto boot = sandbox::bootSandbox(SandboxSystem::GVisor, fn);
    EXPECT_EQ(boot.instance->guest().pendingFds(), 0u);
}

TEST(OverlayLogTest, RequestsWriteLogsIntoTheOverlay)
{
    Machine machine(42);
    FunctionRegistry registry(machine);
    core::CatalyzerRuntime runtime(machine);
    auto &fn = registry.artifactsFor(apps::appByName("ds-text"));

    auto boot = runtime.bootFork(fn);
    ASSERT_NE(boot.instance->rootfs(), nullptr);
    const std::size_t before = boot.instance->rootfs()->upperBytes();
    boot.instance->invoke();
    boot.instance->invoke();
    EXPECT_GT(boot.instance->rootfs()->upperBytes(), before);
    // The logs are private to the sandbox: the lower rootfs is clean.
    EXPECT_FALSE(fn.fsServer().rootfs().exists(
        "/app/" + fn.app().name + ".request.log"));
}

TEST(CostProfileTest, ServerProfileDiffersSensibly)
{
    const sim::CostModel desktop;
    const sim::CostModel server = sim::CostModel::serverProfile();
    EXPECT_GT(server.restoreWorkers, desktop.restoreWorkers);
    // Slower per-core, faster storage, bigger cache.
    EXPECT_GT(server.deserializeObject.toNs(),
              desktop.deserializeObject.toNs());
    EXPECT_LT(server.demandFaultFileCold.toUs(),
              desktop.demandFaultFileCold.toUs());
    EXPECT_LT(server.pageCacheMissColdBoot,
              desktop.pageCacheMissColdBoot);
}

TEST(LoggingTest, LevelRoundTrips)
{
    const auto saved = sim::logLevel();
    sim::setLogLevel(sim::LogLevel::Debug);
    EXPECT_EQ(sim::logLevel(), sim::LogLevel::Debug);
    sim::setLogLevel(sim::LogLevel::Silent);
    EXPECT_EQ(sim::logLevel(), sim::LogLevel::Silent);
    // warn/inform/debug are no-ops below their level (must not crash).
    sim::warn("suppressed %d", 1);
    sim::inform("suppressed");
    sim::debugLog("suppressed");
    sim::setLogLevel(saved);
}

TEST(NameTableTest, AllEnumsHaveNames)
{
    EXPECT_STREQ(sandbox::sandboxSystemName(SandboxSystem::Native),
                 "Native");
    EXPECT_STREQ(apps::languageName(apps::Language::Ruby), "Ruby");
}

TEST(BaseRootfsTest, ContainsTheUsualSuspects)
{
    const auto tree = Machine::baseRootfs();
    EXPECT_TRUE(tree.exists("/lib/libc.so.6"));
    EXPECT_TRUE(tree.exists("/bin/sh"));
    EXPECT_TRUE(tree.exists("/etc/passwd"));
    EXPECT_GT(tree.fileCount(), 5u);
}

TEST(ArtifactsTest, RootfsCoversConnectionTargets)
{
    Machine machine(42);
    FunctionRegistry registry(machine);
    auto &fn = registry.artifactsFor(apps::appByName("c-nginx"));
    const auto &app = apps::appByName("c-nginx");
    for (std::size_t i = 0; i < app.ioConnections; ++i) {
        EXPECT_TRUE(fn.fsServer().rootfs().exists(
            "/app/data/conn" + std::to_string(i)))
            << i;
    }
    EXPECT_TRUE(fn.fsServer().rootfs().exists(fn.appFilePath(0)));
}

TEST(ZygoteReplenishTest, PoolRefillsToTarget)
{
    Machine machine(42);
    core::ZygotePool pool(machine);
    pool.prewarm(2);
    pool.acquire();
    pool.acquire();
    EXPECT_EQ(pool.cached(), 0u);
    pool.replenish();
    EXPECT_EQ(pool.cached(), 2u);
    EXPECT_EQ(pool.target(), 2u);
}

TEST(InvokeJitterTest, FirstInvocationIsSlowerOnRestoredInstances)
{
    Machine machine(42);
    FunctionRegistry registry(machine);
    core::CatalyzerRuntime runtime(machine);
    auto &fn = registry.artifactsFor(apps::appByName("python-django"));
    auto boot = runtime.bootCold(fn);
    const double first = boot.instance->invoke().toMs();
    const double second = boot.instance->invoke().toMs();
    const double third = boot.instance->invoke().toMs();
    EXPECT_GT(first, second); // lazy reconnects + COW on first touch
    EXPECT_NEAR(second, third, second * 0.2);
}

} // namespace
} // namespace catalyzer
