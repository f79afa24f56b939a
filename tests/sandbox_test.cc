/**
 * @file
 * Integration tests for the boot pipelines of the compared systems.
 */

#include <gtest/gtest.h>

#include "sandbox/pipelines.h"

namespace catalyzer::sandbox {
namespace {

class PipelineTest : public ::testing::Test
{
  protected:
    PipelineTest() : machine(42), registry(machine) {}

    FunctionArtifacts &
    fn(const char *name)
    {
        return registry.artifactsFor(apps::appByName(name));
    }

    Machine machine;
    FunctionRegistry registry;
};

TEST_F(PipelineTest, GVisorBootReachesFuncEntry)
{
    BootResult r = bootSandbox(SandboxSystem::GVisor, fn("c-hello"));
    ASSERT_NE(r.instance, nullptr);
    EXPECT_TRUE(r.instance->guest().atFuncEntryPoint());
    EXPECT_GT(r.instance->guest().state().objectCount(), 0u);
    EXPECT_EQ(r.instance->guest().io().count(),
              apps::appByName("c-hello").ioConnections);
    EXPECT_GT(r.instance->heapPages(), 0u);
    EXPECT_GT(r.report.sandboxInit().toMs(), 0.0);
    EXPECT_GT(r.report.appInit().toMs(), 0.0);
    EXPECT_EQ(r.instance->bootLatency().toNs(), r.report.total().toNs());
}

TEST_F(PipelineTest, GVisorMatchesPaperCHelloLatency)
{
    BootResult r = bootSandbox(SandboxSystem::GVisor, fn("c-hello"));
    // Paper Sec. 2.2: 142 ms startup for C under gVisor.
    EXPECT_NEAR(r.report.total().toMs(), 142.0, 25.0);
}

TEST_F(PipelineTest, SandboxInitIsStableAcrossWorkloads)
{
    BootResult hello = bootSandbox(SandboxSystem::GVisor, fn("c-hello"));
    BootResult jbb =
        bootSandbox(SandboxSystem::GVisor, fn("java-specjbb"));
    // Sandbox init is workload-independent (paper Sec. 2.2, finding 3).
    EXPECT_NEAR(hello.report.sandboxInit().toMs(),
                jbb.report.sandboxInit().toMs(), 3.0);
    // Application init dominates for the heavy Java app (Insight I).
    EXPECT_GT(jbb.report.appInit().toMs(),
              10.0 * jbb.report.sandboxInit().toMs());
}

TEST_F(PipelineTest, NativeIsFastestAndUnsandboxed)
{
    BootResult native = bootSandbox(SandboxSystem::Native,
                                    fn("java-hello"));
    BootResult gvisor = bootSandbox(SandboxSystem::GVisor,
                                    fn("java-hello"));
    // Table 2: native Java ~89 ms, gVisor ~659 ms.
    EXPECT_LT(native.report.total().toMs(), 160.0);
    EXPECT_GT(gvisor.report.total().toMs(),
              3.0 * native.report.total().toMs());
}

TEST_F(PipelineTest, AllSystemsExceedHundredMsOnHello)
{
    // Sec. 2.2: every stock sandbox needs >100 ms even for C-hello.
    for (SandboxSystem system :
         {SandboxSystem::Docker, SandboxSystem::HyperContainer,
          SandboxSystem::FireCracker, SandboxSystem::GVisor}) {
        Machine m(7);
        FunctionRegistry reg(m);
        BootResult r = bootSandbox(
            system, reg.artifactsFor(apps::appByName("c-hello")));
        EXPECT_GT(r.report.total().toMs(), 100.0)
            << sandboxSystemName(system);
    }
}

TEST_F(PipelineTest, HyperContainerIsSlowest)
{
    BootResult hyper =
        bootSandbox(SandboxSystem::HyperContainer, fn("python-hello"));
    for (SandboxSystem system : {SandboxSystem::Docker,
                                 SandboxSystem::FireCracker,
                                 SandboxSystem::GVisor}) {
        BootResult r = bootSandbox(system, fn("python-hello"));
        EXPECT_LT(r.report.total().toMs(), hyper.report.total().toMs())
            << sandboxSystemName(system);
    }
}

TEST_F(PipelineTest, RestoreSkipsAppInitButStillSlow)
{
    BootResult fresh = bootSandbox(SandboxSystem::GVisor,
                                   fn("java-specjbb"));
    BootResult restore = bootSandbox(SandboxSystem::GVisorRestore,
                                     fn("java-specjbb"));
    // Fig. 6: 2x-5x faster than a fresh boot...
    const double speedup = fresh.report.total().toMs() /
                           restore.report.total().toMs();
    EXPECT_GT(speedup, 2.0);
    EXPECT_LT(speedup, 8.0);
    // ...but still far from fast (≈400 ms for SPECjbb).
    EXPECT_GT(restore.report.total().toMs(), 300.0);
    // The restored guest is a faithful copy of the checkpointed one.
    EXPECT_EQ(restore.instance->guest().state().objectCount(), 37838u);
}

TEST_F(PipelineTest, RestoreBreakdownMatchesFig2)
{
    BootResult r = bootSandbox(SandboxSystem::GVisorRestore,
                               fn("java-specjbb"));
    double app_mem = 0, kernel = 0, io = 0;
    for (const trace::BootStage &stage : r.report.stages()) {
        if (stage.name == "restore-app-memory")
            app_mem = stage.time.toMs();
        else if (stage.name == "restore-kernel")
            kernel = stage.time.toMs();
        else if (stage.name == "restore-reconnect-io")
            io = stage.time.toMs();
    }
    EXPECT_NEAR(app_mem, 128.8, 30.0); // paper: 128.805 ms
    EXPECT_NEAR(kernel, 79.2, 20.0);   // paper: 79.180 ms
    EXPECT_NEAR(io, 56.7, 25.0);       // paper: 56.723 ms
}

TEST_F(PipelineTest, SecondBootIsPageCacheWarm)
{
    FunctionArtifacts &f = fn("python-hello");
    bootSandbox(SandboxSystem::GVisor, f);
    const auto cold_reads =
        machine.ctx().stats().value("mem.page_cache_storage_reads");
    bootSandbox(SandboxSystem::GVisor, f);
    // No further storage reads: the binary is in the page cache.
    EXPECT_EQ(machine.ctx().stats().value("mem.page_cache_storage_reads"),
              cold_reads);
}

TEST_F(PipelineTest, InvokeTouchesWorkingSetAndIo)
{
    BootResult r = bootSandbox(SandboxSystem::GVisor, fn("c-nginx"));
    const auto exec = r.instance->invoke();
    EXPECT_GT(exec.toMs(),
              apps::appByName("c-nginx").execComputeCost.toMs() * 0.99);
    EXPECT_EQ(r.instance->invocations(), 1u);
    // A freshly-booted instance has live connections: no lazy work.
    EXPECT_EQ(machine.ctx().stats().value("exec.lazy_reconnects"), 0);
}

TEST_F(PipelineTest, CaptureStateMatchesProfile)
{
    BootResult r = bootSandbox(SandboxSystem::GVisor, fn("ruby-hello"));
    const snapshot::GuestState state = r.instance->captureState();
    const auto &app = apps::appByName("ruby-hello");
    EXPECT_EQ(state.memoryPages, app.heapPages());
    EXPECT_EQ(state.ioConns.size(), app.ioConnections);
    EXPECT_EQ(state.app, &app);
}

TEST_F(PipelineTest, ImagesAreBuiltOnceAndCached)
{
    FunctionArtifacts &f = fn("nodejs-hello");
    auto a = ensureProtoImage(f);
    auto b = ensureProtoImage(f);
    EXPECT_EQ(a.get(), b.get());
    EXPECT_EQ(machine.ctx().stats().value("snapshot.images_built"), 1);
}

TEST_F(PipelineTest, InstanceDestructionReleasesMemory)
{
    const std::size_t before = machine.frames().liveFrames();
    {
        BootResult r = bootSandbox(SandboxSystem::GVisor, fn("c-hello"));
        EXPECT_GT(machine.frames().liveFrames(), before);
    }
    // Only the page cache (binary) survives the instance.
    const std::size_t after = machine.frames().liveFrames();
    EXPECT_LE(after, before + apps::appByName("c-hello").binaryPages);
}

TEST(BootReportTest, StageAccounting)
{
    using sim::SimTime;
    sim::VirtualClock clock;
    clock.advance(SimTime::milliseconds(7)); // before start(): not booked
    trace::BootReport report;
    report.start(clock);
    {
        auto stage = report.sandboxStage({}, "a");
        clock.advance(SimTime::milliseconds(2));
    }
    {
        auto stage = report.appStage({}, "b");
        clock.advance(SimTime::milliseconds(3));
    }
    EXPECT_DOUBLE_EQ(report.sandboxInit().toMs(), 2.0);
    EXPECT_DOUBLE_EQ(report.appInit().toMs(), 3.0);
    EXPECT_DOUBLE_EQ(report.total().toMs(), 5.0);
    ASSERT_EQ(report.stages().size(), 2u);
    EXPECT_EQ(report.stages()[0].name, "a");
    EXPECT_EQ(report.stages()[0].phase, trace::BootPhase::SandboxInit);
    EXPECT_EQ(report.stages()[1].name, "b");
    EXPECT_DOUBLE_EQ(report.stages()[1].time.toMs(), 3.0);
    EXPECT_EQ(report.stages()[1].phase, trace::BootPhase::AppInit);

    // Like sim::Stopwatch, a stage refuses a clock moved behind its mark.
    clock.reset();
    EXPECT_DEATH({ auto stage = report.appStage({}, "c"); },
                 "behind the stage mark");
}

} // namespace
} // namespace catalyzer::sandbox
