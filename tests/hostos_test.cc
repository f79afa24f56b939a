/**
 * @file
 * Unit tests for the host kernel: KVM model, processes, fork and sfork.
 */

#include <gtest/gtest.h>

#include "hostos/host_kernel.h"
#include "hostos/kvm.h"
#include "sandbox/machine.h"

namespace catalyzer::hostos {
namespace {

using sim::SimContext;

TEST(KvmTest, KvcallocCacheCutsCreateVmCost)
{
    SimContext a, b;
    KvmVm stock(a, KvmConfig{true, false});
    KvmVm tuned(b, KvmConfig{true, true});
    stock.createVm();
    tuned.createVm();
    // Fig. 16b: ~1.6 ms of kvcalloc drops to tens of microseconds.
    const double saved = a.now().toMs() - b.now().toMs();
    EXPECT_GT(saved, 1.0);
}

TEST(KvmTest, PmlMakesRegionRegistrationGrow)
{
    SimContext a, b;
    KvmVm pml_on(a, KvmConfig{true, false});
    KvmVm pml_off(b, KvmConfig{false, false});
    pml_on.createVm();
    pml_off.createVm();
    pml_on.createVcpu();
    pml_off.createVcpu();

    sim::SimTime last_on, last_off;
    for (int i = 0; i < 11; ++i) {
        last_on = pml_on.setUserMemoryRegion();
        last_off = pml_off.setUserMemoryRegion();
    }
    // Fig. 16c: the 11th ioctl is ~10x more expensive with PML.
    EXPECT_GT(last_on.toUs() / last_off.toUs(), 5.0);
    // Cost grows with the number of registered regions under PML.
    SimContext c;
    KvmVm fresh(c, KvmConfig{true, false});
    fresh.createVm();
    fresh.createVcpu();
    EXPECT_LT(fresh.setUserMemoryRegion().toUs(), last_on.toUs());
}

TEST(KvmTest, OrderingViolationsPanic)
{
    SimContext ctx;
    KvmVm vm(ctx, KvmConfig{});
    EXPECT_DEATH(vm.createVcpu(), "before createVm");
    EXPECT_DEATH(vm.setUserMemoryRegion(), "before createVm");
    vm.createVm();
    EXPECT_DEATH(vm.createVm(), "already created");
}

class HostKernelTest : public ::testing::Test
{
  protected:
    HostKernelTest() : kernel(ctx) {}
    SimContext ctx;
    HostKernel kernel;
};

TEST_F(HostKernelTest, SpawnAndExit)
{
    HostProcess &proc = kernel.spawnProcess("p");
    EXPECT_TRUE(proc.alive());
    EXPECT_EQ(kernel.processCount(), 1u);
    const auto va = proc.space().mapAnon(4, true, "x");
    proc.space().touchRange(va, 4, true);
    EXPECT_EQ(kernel.machineRssPages(), 4u);
    kernel.exitProcess(proc.pid());
    EXPECT_EQ(kernel.processCount(), 0u);
    EXPECT_EQ(kernel.machineRssPages(), 0u);
}

TEST_F(HostKernelTest, MultiThreadedForkPanics)
{
    HostProcess &parent = kernel.spawnProcess("p");
    parent.setThreadCount(4);
    EXPECT_DEATH(kernel.sfork(parent, "c"), "transient single-thread");
}

TEST_F(HostKernelTest, SforkGivesFreshNamespaces)
{
    HostProcess &parent = kernel.spawnProcess("p");
    HostProcess &child = kernel.sfork(parent, "c");
    EXPECT_NE(child.pid(), parent.pid());
    EXPECT_EQ(child.name(), "c");
    EXPECT_NE(child.pidNamespace(), parent.pidNamespace());
    EXPECT_NE(child.userNamespace(), parent.userNamespace());
    EXPECT_EQ(ctx.stats().value("host.namespace_setups"), 1);
}

TEST_F(HostKernelTest, SforkMemoryIsCow)
{
    HostProcess &parent = kernel.spawnProcess("p");
    const auto va = parent.space().mapAnon(8, true, "heap");
    parent.space().touchRange(va, 8, true);
    const std::size_t before = kernel.machineRssPages();

    HostProcess &child = kernel.sfork(parent, "c");
    EXPECT_EQ(child.aslrSalt(), parent.aslrSalt()); // same layout
    EXPECT_EQ(kernel.machineRssPages(), before); // no copies yet
    child.space().touch(va, true);
    EXPECT_EQ(kernel.machineRssPages(), before + 1);
}

TEST_F(HostKernelTest, SforkInheritsFdTable)
{
    HostProcess &parent = kernel.spawnProcess("p");
    parent.fds().allocate(vfs::FdEntry{vfs::FdKind::File, "/ro", true,
                                       true, 0});
    HostProcess &child = kernel.sfork(parent, "c");
    ASSERT_NE(child.fds().get(0), nullptr);
    EXPECT_EQ(child.fds().get(0)->path, "/ro");
}

TEST_F(HostKernelTest, DupChargesAndAllocates)
{
    HostProcess &proc = kernel.spawnProcess("p");
    const int fd = proc.fds().allocate(
        vfs::FdEntry{vfs::FdKind::File, "/x", true, true, 0});
    const auto before = ctx.now();
    const int nfd = kernel.dup(proc, fd);
    EXPECT_NE(nfd, fd);
    EXPECT_GT(ctx.now(), before);
    EXPECT_DEATH(kernel.dup(proc, 77), "not open");
}

TEST_F(HostKernelTest, DupTailLatencyOnExpansion)
{
    HostProcess &proc = kernel.spawnProcess("p");
    const int fd = proc.fds().allocate(
        vfs::FdEntry{vfs::FdKind::File, "/x", true, true, 0});
    // Fill to capacity so the next dup expands.
    while (!proc.fds().nextAllocationExpands())
        proc.fds().allocate(vfs::FdEntry{});
    const auto before = ctx.now();
    kernel.dup(proc, fd);
    const double us = (ctx.now() - before).toUs();
    // Expansion costs at least the typical reallocation latency.
    EXPECT_GE(us, ctx.costs().dupExpandTypical.toUs() * 0.99);
    EXPECT_EQ(ctx.stats().value("vfs.fdtable_expansions"), 1);
}

TEST_F(HostKernelTest, ExitUnknownPidPanics)
{
    EXPECT_DEATH(kernel.exitProcess(424242), "no pid");
}

} // namespace
} // namespace catalyzer::hostos
