/**
 * @file
 * Tests for the fault-injection subsystem (src/faults/) and the
 * graceful-degradation fallback chain it drives: retry policy math,
 * injector determinism and pay-for-use behaviour, per-site recovery
 * (zygote builds, remote fetches, I/O reconnects), and the platform's
 * sfork -> warm -> cold -> fresh tier degradation.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "catalyzer/runtime.h"
#include "faults/fault_injector.h"
#include "objgraph_testing.h"
#include "platform/platform.h"
#include "sandbox/pipelines.h"
#include "snapshot/io_reconnect.h"

namespace catalyzer::faults {
namespace {

using namespace sim::time_literals;
using platform::BootStrategy;
using platform::InvocationRecord;
using platform::PlatformConfig;
using platform::ServerlessPlatform;
using sandbox::BootResult;
using sandbox::FunctionArtifacts;
using sandbox::FunctionRegistry;
using sandbox::Machine;

//
// The retry policy: exponential backoff with jitter.
//

TEST(RetryPolicyTest, BackoffGrowsExponentiallyWithinJitterBounds)
{
    sim::Rng rng(7);
    for (int attempt = 1; attempt <= 3; ++attempt) {
        const double expected =
            kInitialBackoff.toMs() * std::pow(2.0, attempt - 1);
        const double got = retryBackoff(attempt, rng).toMs();
        EXPECT_GE(got, expected * (1.0 - kJitterFraction));
        EXPECT_LE(got, expected * (1.0 + kJitterFraction));
    }
    // Far past the ceiling, the backoff is capped (jitter can still
    // push it up to (1+j) * cap).
    const double capped = retryBackoff(20, rng).toMs();
    EXPECT_LE(capped, kMaxBackoff.toMs() * (1.0 + kJitterFraction));
    EXPECT_GE(capped, kMaxBackoff.toMs() * (1.0 - kJitterFraction));
}

TEST(RetryPolicyTest, DeterministicForEqualSeeds)
{
    sim::Rng a(42), b(42);
    for (int attempt = 1; attempt <= 5; ++attempt)
        EXPECT_EQ(retryBackoff(attempt, a).toNs(),
                  retryBackoff(attempt, b).toNs());
}

//
// FaultInjector: decisions, scripting, pay-for-use.
//

TEST(FaultInjectorTest, DisabledInjectorIsFreeAndSilent)
{
    Machine machine(1);
    auto &ctx = machine.ctx();
    FaultInjector injector; // all-zero config

    const sim::SimTime before = ctx.now();
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(
            injector.shouldFail(FaultSite::ImageFetch, ctx.stats()));
        injector.checkWithRetry(ctx, FaultSite::Sfork);
    }
    // Zero perturbation: no virtual time, no injections, no counters.
    EXPECT_EQ(ctx.now(), before);
    EXPECT_EQ(injector.injected(FaultSite::ImageFetch), 0u);
    EXPECT_EQ(ctx.stats().value("faults.injected.image_fetch"), 0);
    EXPECT_EQ(ctx.stats().value("faults.injected.sfork"), 0);
}

TEST(FaultInjectorTest, ProbabilityOneAlwaysFails)
{
    Machine machine(1);
    FaultConfig config;
    config.rate(FaultSite::IoReconnect) = 1.0;
    FaultInjector injector(config);
    for (int i = 0; i < 5; ++i)
        EXPECT_TRUE(injector.shouldFail(FaultSite::IoReconnect,
                                        machine.ctx().stats()));
    // Other sites are untouched.
    EXPECT_FALSE(injector.shouldFail(FaultSite::Sfork,
                                     machine.ctx().stats()));
    EXPECT_EQ(injector.injected(FaultSite::IoReconnect), 5u);
    EXPECT_EQ(machine.ctx().stats().value(
                  "faults.injected.io_reconnect"), 5);
}

TEST(FaultInjectorTest, SameSeedSameDecisionSequence)
{
    FaultConfig config;
    config.rate(FaultSite::ImageFetch) = 0.5;
    Machine m1(1), m2(1);
    FaultInjector a(config);
    FaultInjector b(config);
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(a.shouldFail(FaultSite::ImageFetch, m1.ctx().stats()),
                  b.shouldFail(FaultSite::ImageFetch, m2.ctx().stats()));
}

TEST(FaultInjectorTest, FailNextScriptsExactCount)
{
    Machine machine(1);
    FaultInjector injector;
    injector.failNext(FaultSite::ZygoteBuild, 2);
    EXPECT_TRUE(injector.shouldFail(FaultSite::ZygoteBuild,
                                    machine.ctx().stats()));
    EXPECT_TRUE(injector.shouldFail(FaultSite::ZygoteBuild,
                                    machine.ctx().stats()));
    EXPECT_FALSE(injector.shouldFail(FaultSite::ZygoteBuild,
                                     machine.ctx().stats()));
    EXPECT_EQ(injector.injected(FaultSite::ZygoteBuild), 2u);
}

TEST(FaultInjectorTest, CheckWithRetryChargesAndThrowsOnExhaustion)
{
    Machine machine(1);
    auto &ctx = machine.ctx();
    FaultInjector injector;

    // One transient failure: survives, costs one timeout + one backoff.
    injector.failNext(FaultSite::Sfork, 1);
    sim::SimTime before = ctx.now();
    injector.checkWithRetry(ctx, FaultSite::Sfork);
    EXPECT_GE(ctx.now() - before, kAttemptTimeout);
    EXPECT_EQ(ctx.stats().value("faults.retries.sfork"), 1);

    // Persistent failure: every attempt fails, then FaultError.
    injector.failNext(FaultSite::Sfork, kMaxAttempts);
    before = ctx.now();
    EXPECT_THROW(injector.checkWithRetry(ctx, FaultSite::Sfork),
                 FaultError);
    EXPECT_GE(ctx.now() - before, kAttemptTimeout * kMaxAttempts);
}

TEST(FaultInjectorTest, RetryScheduleIsPinned)
{
    // Every site retries with one fixed policy: three attempts, a 2 ms
    // timeout per failed attempt, and a backoff of 0.5 ms doubling per
    // attempt up to 8 ms, scaled by a uniform jitter in [0.75, 1.25).
    EXPECT_EQ(kMaxAttempts, 3);
    EXPECT_EQ(kAttemptTimeout.toNs(), 2'000'000);

    // Attempts 1-5 from Rng(7): base 0.5, 1, 2, 4, 8 (the cap) ms times
    // the draws 1.1003, 0.8894, 1.1698, 1.2405, 1.2454.
    sim::Rng rng(7);
    const std::int64_t expected_ns[] = {550'144, 889'375, 2'339'627,
                                        4'962'195, 9'963'441};
    for (int attempt = 1; attempt <= 5; ++attempt)
        EXPECT_EQ(retryBackoff(attempt, rng).toNs(),
                  expected_ns[attempt - 1])
            << "attempt " << attempt;

    // A site that fails every attempt burns three timeouts and the two
    // backoffs between them, jittered from the injector's own stream.
    Machine machine(1);
    auto &ctx = machine.ctx();
    FaultInjector injector;
    injector.failNext(FaultSite::Sfork, kMaxAttempts);
    const sim::SimTime before = ctx.now();
    EXPECT_THROW(injector.checkWithRetry(ctx, FaultSite::Sfork),
                 FaultError);
    EXPECT_EQ((ctx.now() - before).toNs(),
              3 * 2'000'000 + 502'813 + 750'501);
}

TEST(FaultInjectorTest, FaultErrorCarriesSite)
{
    const FaultError err(FaultSite::TemplateDeath, "boom");
    EXPECT_EQ(err.site(), FaultSite::TemplateDeath);
    EXPECT_STREQ(err.what(), "boom");
    EXPECT_STREQ(faultSiteName(FaultSite::TemplateDeath),
                 "template_death");
}

//
// Zygote builds under injected faults.
//

TEST(ZygoteFaultTest, AcquireSurvivesTransientBuildFailure)
{
    Machine machine(7);
    FaultInjector injector;
    core::ZygotePool pool(machine);
    pool.setFaultInjector(&injector);

    injector.failNext(FaultSite::ZygoteBuild, 1);
    core::Zygote z = pool.acquire(); // miss -> build retries once
    EXPECT_NE(z.proc, nullptr);
    EXPECT_EQ(machine.ctx().stats().value("faults.retries.zygote_build"),
              1);
    EXPECT_EQ(pool.misses(), 1u);
}

TEST(ZygoteFaultTest, PrewarmStopsOnPersistentFailure)
{
    Machine machine(7);
    FaultInjector injector;
    core::ZygotePool pool(machine);
    pool.setFaultInjector(&injector);

    injector.failNext(FaultSite::ZygoteBuild, kMaxAttempts);
    pool.prewarm(2);
    // The first build exhausted its retries; the round was abandoned
    // rather than crashing the offline builder.
    EXPECT_EQ(pool.cached(), 0u);
    EXPECT_EQ(machine.ctx().stats().value(
                  "catalyzer.zygote_build_aborts"), 1);
    // The fault cleared: replenish tops the pool back up to target.
    pool.replenish();
    EXPECT_EQ(pool.cached(), 2u);
}

//
// Remote image fetches under injected faults.
//

TEST(ImageFetchFaultTest, TransientFetchFailureRetriesThenBoots)
{
    Machine machine(42);
    FunctionRegistry registry(machine);
    core::CatalyzerOptions options;
    options.remoteImages = true;
    core::CatalyzerRuntime runtime(machine, options);
    auto &fn = registry.artifactsFor(apps::appByName("c-hello"));

    runtime.faults().failNext(FaultSite::ImageFetch, 1);
    BootResult boot = runtime.bootCold(fn);
    ASSERT_NE(boot.instance, nullptr);
    EXPECT_EQ(machine.ctx().stats().value(
                  "catalyzer.image_fetch_retries"), 1);
    EXPECT_EQ(machine.ctx().stats().value(
                  "faults.injected.image_fetch"), 1);
}

TEST(ImageFetchFaultTest, ExhaustedFetchThrowsThenRecovers)
{
    Machine machine(42);
    FunctionRegistry registry(machine);
    core::CatalyzerOptions options;
    options.remoteImages = true;
    core::CatalyzerRuntime runtime(machine, options);
    auto &fn = registry.artifactsFor(apps::appByName("c-hello"));

    runtime.faults().failNext(FaultSite::ImageFetch, kMaxAttempts);
    EXPECT_THROW(runtime.bootCold(fn), FaultError);
    // The outage cleared: the next cold boot fetches and completes.
    BootResult boot = runtime.bootCold(fn);
    ASSERT_NE(boot.instance, nullptr);
    EXPECT_TRUE(
        objgraph::refsPointBackward(boot.instance->guest().state()));
}

//
// I/O reconnects under injected faults.
//

TEST(ReconnectFaultTest, RetryLoopAndPermanentFailure)
{
    Machine machine(3);
    auto &ctx = machine.ctx();
    FaultInjector injector;

    vfs::IoConnection conn;
    conn.kind = vfs::ConnKind::Socket;
    conn.path = "tcp://backend:1";
    conn.established = false;

    // Transient: one failure, then the reconnect lands.
    injector.failNext(FaultSite::IoReconnect, 1);
    EXPECT_TRUE(snapshot::reconnectWithRetry(ctx, conn, nullptr,
                                             &injector));
    EXPECT_TRUE(conn.established);
    EXPECT_EQ(ctx.stats().value("snapshot.io_reconnect_retries"), 1);

    // Persistent: every attempt fails; the connection stays down.
    conn.established = false;
    injector.failNext(FaultSite::IoReconnect, kMaxAttempts);
    EXPECT_FALSE(snapshot::reconnectWithRetry(ctx, conn, nullptr,
                                              &injector));
    EXPECT_FALSE(conn.established);
    EXPECT_EQ(ctx.stats().value("snapshot.io_reconnect_failures"), 1);
}

TEST(ReconnectFaultTest, WarmBootInvalidatesIoCacheEntry)
{
    Machine machine(42);
    FunctionRegistry registry(machine);
    core::CatalyzerRuntime runtime(machine);
    auto &stats = machine.ctx().stats();
    auto &fn = registry.artifactsFor(apps::appByName("python-django"));

    // Cold boot records the startup I/O set into the cache.
    runtime.bootCold(fn);
    ASSERT_FALSE(fn.ioCache.empty());
    const std::size_t cached_before = fn.ioCache.size();

    // The first cache-guided reconnect of the warm boot fails for good:
    // the entry is invalidated and the boot still completes, degrading
    // that connection to a lazy request-time reconnect.
    runtime.faults().failNext(FaultSite::IoReconnect, kMaxAttempts);
    BootResult warm = runtime.bootWarm(fn);
    ASSERT_NE(warm.instance, nullptr);
    EXPECT_EQ(fn.ioCache.size(), cached_before - 1);
    EXPECT_EQ(stats.value("catalyzer.io_cache_invalidated"), 1);
    EXPECT_EQ(stats.value("boot.fallback.io_eager_lazy"), 1);
    // The first request lazily re-establishes whatever is still down.
    EXPECT_GT(warm.instance->invoke(), sim::SimTime::zero());
}

//
// The platform fallback chain: each tier degrades to the next, and the
// request is served either way.
//

TEST(FallbackChainTest, TemplateDeathDegradesSforkToWarm)
{
    Machine machine(42);
    PlatformConfig config;
    config.strategy = BootStrategy::CatalyzerAuto;
    ServerlessPlatform plat(machine, config);
    auto &stats = machine.ctx().stats();
    const apps::AppProfile &app = apps::appByName("python-hello");
    plat.prepare(app); // builds the template

    // Fault-free baseline: the template serves a fork boot.
    const InvocationRecord healthy = plat.invoke(app.name);
    EXPECT_EQ(healthy.tierServed, "sfork");
    EXPECT_EQ(healthy.tierFallbacks, 0);

    plat.catalyzer().faults().failNext(FaultSite::TemplateDeath, 1);
    const InvocationRecord degraded = plat.invoke(app.name);
    EXPECT_EQ(degraded.tierServed, "warm");
    EXPECT_EQ(degraded.tierFallbacks, 1);
    EXPECT_EQ(stats.value("boot.fallback.sfork_warm"), 1);
    // The dead template is gone; a later fork boot would rebuild it.
    EXPECT_EQ(plat.registry().find(app.name)->templateSandbox, nullptr);

    // Identical request results: a served instance of the same function
    // with intact guest state, and a real execution.
    EXPECT_GT(degraded.execLatency, sim::SimTime::zero());
    auto instances = plat.instancesOf(app.name);
    ASSERT_EQ(instances.size(), 2u);
    EXPECT_EQ(&instances.back()->app(), &instances.front()->app());
    EXPECT_TRUE(
        objgraph::refsPointBackward(instances.back()->guest().state()));
}

TEST(FallbackChainTest, SforkFailureRetriesThenDegradesToWarm)
{
    Machine machine(42);
    PlatformConfig config;
    config.strategy = BootStrategy::CatalyzerFork;
    ServerlessPlatform plat(machine, config);
    const apps::AppProfile &app = apps::appByName("c-hello");
    plat.prepare(app);
    auto &faults = plat.catalyzer().faults();

    // Transient: the sfork retries and still serves the fork tier.
    faults.failNext(FaultSite::Sfork, 1);
    const InvocationRecord retried = plat.invoke(app.name);
    EXPECT_EQ(retried.tierServed, "sfork");
    EXPECT_EQ(machine.ctx().stats().value("faults.retries.sfork"), 1);

    // Persistent: the fork tier fails and warm serves the request.
    faults.failNext(FaultSite::Sfork, kMaxAttempts);
    const InvocationRecord degraded = plat.invoke(app.name);
    EXPECT_EQ(degraded.tierServed, "warm");
    EXPECT_EQ(machine.ctx().stats().value("boot.fallback.sfork_warm"),
              1);
}

TEST(FallbackChainTest, ZygoteFailureDegradesWarmToCold)
{
    Machine machine(42);
    PlatformConfig config;
    config.strategy = BootStrategy::CatalyzerWarm;
    core::CatalyzerOptions options;
    options.zygotePrewarm = 0; // every warm boot builds on the path
    ServerlessPlatform plat(machine, config, options);
    const apps::AppProfile &app = apps::appByName("c-hello");
    plat.deploy(app);
    auto &faults = plat.catalyzer().faults();

    faults.failNext(FaultSite::ZygoteBuild, kMaxAttempts);
    const InvocationRecord degraded = plat.invoke(app.name);
    EXPECT_EQ(degraded.tierServed, "cold");
    EXPECT_EQ(degraded.tierFallbacks, 1);
    EXPECT_EQ(machine.ctx().stats().value("boot.fallback.warm_cold"),
              1);

    // Fault cleared: the warm tier serves again.
    const InvocationRecord healthy = plat.invoke(app.name);
    EXPECT_EQ(healthy.tierServed, "warm");
}

TEST(FallbackChainTest, FetchOutageDegradesColdToFresh)
{
    Machine machine(42);
    PlatformConfig config;
    config.strategy = BootStrategy::CatalyzerCold;
    core::CatalyzerOptions options;
    options.remoteImages = true;
    ServerlessPlatform plat(machine, config, options);
    const apps::AppProfile &app = apps::appByName("c-hello");
    plat.deploy(app);
    auto &faults = plat.catalyzer().faults();

    faults.failNext(FaultSite::ImageFetch, kMaxAttempts);
    const InvocationRecord degraded = plat.invoke(app.name);
    EXPECT_EQ(degraded.tierServed, "fresh");
    // The last resort is a from-scratch gVisor boot.
    EXPECT_EQ(plat.instancesOf(app.name).back()->name(),
              app.name + "-gvisor");
    EXPECT_EQ(machine.ctx().stats().value("boot.fallback.cold_fresh"),
              1);
    EXPECT_GT(degraded.execLatency, sim::SimTime::zero());

    // Outage over: cold restore serves again.
    const InvocationRecord healthy = plat.invoke(app.name);
    EXPECT_EQ(healthy.tierServed, "cold");
    // The tier histogram saw both boots.
    const auto *tiers =
        machine.ctx().stats().findHistogram("boot.tier_served");
    ASSERT_NE(tiers, nullptr);
    EXPECT_EQ(tiers->count(), 2u);
}

TEST(FallbackChainTest, ProbabilisticSoupServesEveryRequest)
{
    Machine machine(42);
    PlatformConfig config;
    config.strategy = BootStrategy::CatalyzerAuto;
    core::CatalyzerOptions options;
    options.remoteImages = true;
    options.verifyImages = true;
    options.faults.setAllRates(0.05);
    ServerlessPlatform plat(machine, config, options);
    const apps::AppProfile &app = apps::appByName("python-hello");
    plat.prepare(app);

    constexpr int kRequests = 60;
    int fallbacks = 0;
    for (int i = 0; i < kRequests; ++i) {
        const InvocationRecord record = plat.invoke(app.name);
        EXPECT_FALSE(record.tierServed.empty());
        EXPECT_GT(record.execLatency, sim::SimTime::zero());
        fallbacks += record.tierFallbacks;
    }
    // At 5% per site something must have been injected and survived.
    std::int64_t injected = 0;
    for (std::size_t i = 0; i < kFaultSiteCount; ++i)
        injected += static_cast<std::int64_t>(
            plat.catalyzer().faults().injected(
                static_cast<FaultSite>(i)));
    EXPECT_GT(injected, 0);
    EXPECT_GE(fallbacks, 0);
    EXPECT_EQ(plat.totalInstances(), static_cast<std::size_t>(kRequests));
}

} // namespace
} // namespace catalyzer::faults
