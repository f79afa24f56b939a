/**
 * @file
 * Integration tests for the Catalyzer runtime: Zygotes, on-demand
 * restore (cold/warm), sfork fork boot, language templates and the
 * ablation knobs.
 */

#include <gtest/gtest.h>

#include "catalyzer/runtime.h"
#include "objgraph_testing.h"
#include "sandbox/pipelines.h"

namespace catalyzer::core {
namespace {

using sandbox::BootResult;
using sandbox::FunctionArtifacts;
using sandbox::FunctionRegistry;
using sandbox::Machine;
using sandbox::SandboxSystem;

class CatalyzerTest : public ::testing::Test
{
  protected:
    CatalyzerTest() : machine(42), registry(machine), runtime(machine) {}

    FunctionArtifacts &
    fn(const char *name)
    {
        return registry.artifactsFor(apps::appByName(name));
    }

    Machine machine;
    FunctionRegistry registry;
    CatalyzerRuntime runtime;
};

TEST(ZygotePoolTest, PrewarmAndAcquire)
{
    Machine machine(1);
    ZygotePool pool(machine);
    pool.prewarm(2);
    EXPECT_EQ(pool.cached(), 2u);
    Zygote z = pool.acquire();
    EXPECT_NE(z.proc, nullptr);
    EXPECT_TRUE(z.guest->initialized());
    EXPECT_TRUE(z.guest->threads().started());
    EXPECT_EQ(pool.cached(), 1u);
    EXPECT_EQ(pool.misses(), 0u);

    pool.acquire();
    pool.acquire(); // miss -> built on the path
    EXPECT_EQ(pool.misses(), 1u);
    EXPECT_EQ(pool.built(), 3u);
}

TEST(ZygotePoolTest, KvmConfigIsTuned)
{
    const hostos::KvmConfig config = ZygotePool::kvmConfig();
    EXPECT_FALSE(config.pmlEnabled);
    EXPECT_TRUE(config.kvcallocCacheEnabled);
}

TEST_F(CatalyzerTest, ColdBootRestoresFaithfully)
{
    FunctionArtifacts &f = fn("python-hello");
    BootResult r = runtime.bootCold(f);
    ASSERT_NE(r.instance, nullptr);
    EXPECT_EQ(r.report.stages().front().name, "construct-sandbox");
    // The guest object graph equals the checkpointed one.
    EXPECT_TRUE(objgraph::sameGraph(r.instance->guest().state(),
                                    f.separatedImage->state().kernelGraph));
    EXPECT_EQ(r.instance->guest().io().count(),
              f.separatedImage->ioTable().size());
    // Heap is served through the shared Base-EPT, not private copies:
    // the only private pages are the Sentry's own memory and the COWed
    // pointer pages of the metadata arena.
    EXPECT_TRUE(r.instance->heapOnBase());
    const auto sentry_pages = static_cast<std::size_t>(
        machine.ctx().costs().sentrySelfPages);
    EXPECT_LT(r.instance->space().privatePages() - sentry_pages,
              r.instance->heapPages() / 4);
}

TEST_F(CatalyzerTest, ColdBootIsFarFasterThanGVisorRestore)
{
    FunctionArtifacts &f = fn("java-specjbb");
    BootResult baseline =
        sandbox::bootSandbox(SandboxSystem::GVisorRestore, f);
    BootResult cold = runtime.bootCold(f);
    // Fig. 11: Catalyzer-restore vs gVisor-restore is ~10x.
    EXPECT_GT(baseline.report.total().toMs() /
                  cold.report.total().toMs(),
              5.0);
    EXPECT_LT(cold.report.total().toMs(), 60.0);
}

TEST_F(CatalyzerTest, WarmBootSharesBaseAndBeatsGVisorByOrders)
{
    FunctionArtifacts &f = fn("java-hello");
    BootResult warm = runtime.bootWarm(f);
    EXPECT_EQ(warm.report.stages().front().name, "zygote-acquire");
    // Paper: ~14 ms warm boots for Java.
    EXPECT_LT(warm.report.total().toMs(), 25.0);
    EXPECT_EQ(warm.instance->space().base().get(), f.sharedBase.get());

    BootResult warm2 = runtime.bootWarm(f);
    EXPECT_EQ(warm2.instance->space().base().get(), f.sharedBase.get());
}

TEST_F(CatalyzerTest, WarmUsesIoCacheForStartupConnections)
{
    FunctionArtifacts &f = fn("c-nginx");
    runtime.bootWarm(f); // primes base + cache
    EXPECT_FALSE(f.ioCache.empty());
    BootResult warm = runtime.bootWarm(f);
    // The deterministic startup set is connected on the critical path...
    std::size_t established = 0, startup = 0;
    for (const auto &conn : warm.instance->guest().io().all()) {
        startup += conn.usedAtStartup;
        established += conn.established;
    }
    EXPECT_EQ(established, startup);
    // ...and the rest stays lazy.
    EXPECT_LT(established, warm.instance->guest().io().count());
}

TEST_F(CatalyzerTest, ForkBootIsSubMillisecondForC)
{
    BootResult r = runtime.bootFork(fn("c-hello"));
    EXPECT_EQ(r.report.stages().front().name, "sfork");
    // The headline result: <1 ms fork boot for C-hello.
    EXPECT_LT(r.report.total().toMs(), 1.0);
    EXPECT_GT(r.instance->guest().threads().totalThreads(), 1);
    EXPECT_FALSE(r.instance->guest().threads().transient());
}

TEST_F(CatalyzerTest, ForkBootUnderTwoMsForJava)
{
    BootResult r = runtime.bootFork(fn("java-specjbb"));
    // Paper: 1.5-2 ms for Java functions.
    EXPECT_LT(r.report.total().toMs(), 2.0);
    EXPECT_EQ(r.instance->guest().state().objectCount(), 37838u);
}

TEST_F(CatalyzerTest, TemplateIsReusableForManyForks)
{
    FunctionArtifacts &f = fn("ds-text");
    runtime.prepareTemplate(f);
    ASSERT_NE(f.templateSandbox, nullptr);

    std::vector<std::unique_ptr<sandbox::SandboxInstance>> children;
    for (int i = 0; i < 16; ++i) {
        BootResult r = runtime.bootFork(f);
        EXPECT_LT(r.report.total().toMs(), 2.0);
        children.push_back(std::move(r.instance));
    }
    // The template never left the transient state.
    EXPECT_TRUE(f.templateSandbox->guest().threads().transient());
}

TEST_F(CatalyzerTest, ForkChildrenShareMemoryUntilWrites)
{
    FunctionArtifacts &f = fn("ds-compose");
    BootResult a = runtime.bootFork(f);
    BootResult b = runtime.bootFork(f);
    // PSS is well below RSS: children share the template's pages.
    EXPECT_LT(a.instance->pssBytes(),
              0.7 * static_cast<double>(a.instance->rssBytes()));

    // Writes during execution privatize pages: PSS grows.
    const double pss_before = b.instance->pssBytes();
    b.instance->invoke();
    EXPECT_GT(b.instance->pssBytes(), pss_before);
}

TEST_F(CatalyzerTest, SforkChildSocketsReconnectLazily)
{
    FunctionArtifacts &f = fn("python-django");
    BootResult r = runtime.bootFork(f);
    std::size_t down_sockets = 0;
    for (const auto &conn : r.instance->guest().io().all()) {
        if (conn.kind == vfs::ConnKind::Socket && !conn.established)
            ++down_sockets;
    }
    EXPECT_GT(down_sockets, 0u);
    // First request re-establishes what it needs, on demand.
    r.instance->invoke();
    EXPECT_GT(machine.ctx().stats().value("exec.lazy_reconnects") +
                  machine.ctx().stats().value("exec.startup_reconnects"),
              0);
}

TEST_F(CatalyzerTest, BootLatencyOrderingColdWarmFork)
{
    FunctionArtifacts &f = fn("nodejs-web");
    BootResult cold = runtime.bootCold(f);
    BootResult warm = runtime.bootWarm(f);
    BootResult fork = runtime.bootFork(f);
    EXPECT_GT(cold.report.total().toMs(), warm.report.total().toMs());
    EXPECT_GT(warm.report.total().toMs(), fork.report.total().toMs());
}

TEST_F(CatalyzerTest, LanguageTemplateColdBoot)
{
    FunctionArtifacts &f = fn("java-hello");
    BootResult r = runtime.bootFromLanguageTemplate(f);
    // Table 2: ~29 ms via the JVM template, ~20x faster than gVisor.
    EXPECT_LT(r.report.total().toMs(), 60.0);
    BootResult gvisor = sandbox::bootSandbox(SandboxSystem::GVisor, f);
    EXPECT_GT(gvisor.report.total().toMs() / r.report.total().toMs(),
              8.0);
    // Inherited template connections plus the function's own never
    // exceed the profile's census (no double-opening).
    EXPECT_EQ(r.instance->guest().io().count(),
              std::max(apps::appByName("java-hello").ioConnections,
                       r.instance->guest().io().count()));
    EXPECT_GE(r.instance->guest().io().count(),
              apps::appByName("java-hello").ioConnections);
}

TEST_F(CatalyzerTest, AblationOverlayMemory)
{
    CatalyzerOptions no_overlay;
    no_overlay.overlayMemory = false;
    Machine m2(42);
    FunctionRegistry reg2(m2);
    CatalyzerRuntime rt2(m2, no_overlay);

    BootResult with = runtime.bootCold(fn("java-specjbb"));
    BootResult without =
        rt2.bootCold(reg2.artifactsFor(apps::appByName("java-specjbb")));
    // Fig. 12: overlay memory saves hundreds of ms on a 200 MB image.
    EXPECT_GT(without.report.total().toMs() -
                  with.report.total().toMs(),
              100.0);
}

TEST_F(CatalyzerTest, AblationSeparatedState)
{
    CatalyzerOptions no_sep;
    no_sep.separatedState = false;
    Machine m2(42);
    FunctionRegistry reg2(m2);
    CatalyzerRuntime rt2(m2, no_sep);

    BootResult with = runtime.bootCold(fn("python-django"));
    BootResult without =
        rt2.bootCold(reg2.artifactsFor(apps::appByName("python-django")));

    auto kernel_ms = [](const BootResult &r) {
        for (const trace::BootStage &stage : r.report.stages()) {
            if (stage.name == "recover-kernel")
                return stage.time.toMs();
        }
        return 0.0;
    };
    // Fig. 12: separated loading cuts kernel recovery ~6-7x.
    EXPECT_GT(kernel_ms(without) / kernel_ms(with), 4.0);
}

TEST_F(CatalyzerTest, AblationLazyIoReconnection)
{
    CatalyzerOptions eager;
    eager.lazyIoReconnection = false;
    Machine m2(42);
    FunctionRegistry reg2(m2);
    CatalyzerRuntime rt2(m2, eager);

    BootResult lazy = runtime.bootCold(fn("java-specjbb"));
    BootResult eager_boot =
        rt2.bootCold(reg2.artifactsFor(apps::appByName("java-specjbb")));

    auto io_ms = [](const BootResult &r) {
        for (const trace::BootStage &stage : r.report.stages()) {
            if (stage.name == "reconnect-io")
                return stage.time.toMs();
        }
        return 0.0;
    };
    // Fig. 12: lazy reconnection removes >50 ms from the critical path
    // (about 18x), leaving only the per-fd deferral bookkeeping.
    EXPECT_GT(io_ms(eager_boot) - io_ms(lazy), 30.0);
    EXPECT_GT(io_ms(eager_boot) / io_ms(lazy), 10.0);
    EXPECT_LT(io_ms(lazy), 5.0);
}

TEST_F(CatalyzerTest, FineGrainedEntryPointCutsExecLatency)
{
    FunctionArtifacts &f = fn("pillow-enhance");
    BootResult base = runtime.bootFork(f);
    const auto exec_default = base.instance->invoke();

    BootResult tuned = runtime.bootFork(f);
    tuned.instance->setPrepFraction(0.66);
    tuned.instance->pretouchWorkingSet();
    const auto exec_tuned = tuned.instance->invoke();
    // Fig. 16a: ~3x lower execution latency.
    EXPECT_GT(exec_default.toMs() / exec_tuned.toMs(), 2.0);
}

TEST_F(CatalyzerTest, DroppingTemplateFreesIt)
{
    FunctionArtifacts &f = fn("ruby-hello");
    runtime.prepareTemplate(f);
    ASSERT_NE(f.templateSandbox, nullptr);
    const std::size_t processes = machine.host().processCount();
    const std::size_t frames = machine.host().machineRssPages();
    f.templateSandbox.reset();
    EXPECT_EQ(machine.host().processCount(), processes - 1);
    EXPECT_LT(machine.host().machineRssPages(), frames);
}

} // namespace
} // namespace catalyzer::core
