/**
 * @file
 * Unit tests for the guest kernel: Table 1 syscall policy, the Go
 * runtime transient single-thread mechanism, and the Sentry model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string_view>

#include "guest/go_runtime.h"
#include "guest/guest_kernel.h"
#include "guest/syscall_policy.h"
#include "sim/context.h"

namespace catalyzer::guest {
namespace {

using sim::SimContext;

TEST(SyscallPolicyTest, TableCoversPaperCategories)
{
    std::size_t proc = 0, vfs = 0, file = 0, net = 0, mem = 0, misc = 0;
    for (const auto &rule : syscallTable()) {
        switch (rule.category) {
          case SyscallCategory::Proc: ++proc; break;
          case SyscallCategory::Vfs: ++vfs; break;
          case SyscallCategory::File: ++file; break;
          case SyscallCategory::Network: ++net; break;
          case SyscallCategory::Mem: ++mem; break;
          case SyscallCategory::Misc: ++misc; break;
        }
    }
    // Table 1 row sizes.
    EXPECT_EQ(proc, 12u);
    EXPECT_EQ(vfs, 18u);
    EXPECT_EQ(file, 7u);
    EXPECT_EQ(net, 6u);
    EXPECT_EQ(mem, 2u);
    EXPECT_EQ(misc, 13u);
}

TEST(SyscallPolicyTest, HandlersMatchCategories)
{
    // Every File syscall is handled by the stateless overlayFS; every
    // Network syscall by reconnect; mmap/munmap by sfork itself.
    for (const auto &rule : syscallTable()) {
        if (rule.category == SyscallCategory::File) {
            EXPECT_EQ(rule.cls, SyscallClass::Handled) << rule.name;
            EXPECT_EQ(rule.handler, SforkHandler::StatelessOverlayFs);
        }
        if (rule.category == SyscallCategory::Network) {
            EXPECT_EQ(rule.handler, SforkHandler::Reconnect) << rule.name;
        }
        if (rule.category == SyscallCategory::Mem) {
            EXPECT_EQ(rule.handler, SforkHandler::SforkMemory)
                << rule.name;
        }
        if (rule.cls == SyscallClass::Allowed) {
            EXPECT_EQ(rule.handler, SforkHandler::None) << rule.name;
        }
        if (rule.cls == SyscallClass::Handled) {
            EXPECT_NE(rule.handler, SforkHandler::None) << rule.name;
        }
    }
}

TEST(SyscallPolicyTest, ClassifyKnownAndUnknown)
{
    EXPECT_EQ(classifySyscall("clone"), SyscallClass::Handled);
    EXPECT_EQ(classifySyscall("futex"), SyscallClass::Allowed);
    EXPECT_EQ(classifySyscall("openat"), SyscallClass::Handled);
    // Not in Table 1 -> removed from the sandbox.
    EXPECT_EQ(classifySyscall("ptrace"), SyscallClass::Denied);
    EXPECT_EQ(classifySyscall("io_uring_setup"), SyscallClass::Denied);
    const auto &table = syscallTable();
    const auto mmap =
        std::find_if(table.begin(), table.end(), [](const SyscallRule &r) {
            return std::string_view(r.name) == "mmap";
        });
    ASSERT_NE(mmap, table.end());
    EXPECT_EQ(mmap->handler, SforkHandler::SforkMemory);
}

TEST(SyscallPolicyTest, ClassListsArePartition)
{
    const auto allowed = syscallsWithClass(SyscallClass::Allowed);
    const auto handled = syscallsWithClass(SyscallClass::Handled);
    EXPECT_EQ(allowed.size() + handled.size(), syscallTable().size());
}

class GoRuntimeTest : public ::testing::Test
{
  protected:
    SimContext ctx;
};

TEST_F(GoRuntimeTest, StartAndCensus)
{
    GoRuntimeModel rt(ctx);
    EXPECT_EQ(rt.totalThreads(), 0);
    rt.start(3, 2);
    EXPECT_EQ(rt.totalThreads(), 5);
    rt.addBlockingThread();
    EXPECT_EQ(rt.totalThreads(), 6);
}

TEST_F(GoRuntimeTest, TransientSingleThreadLifecycle)
{
    GoRuntimeModel rt(ctx);
    rt.start(3, 2);
    rt.addBlockingThread();
    rt.addBlockingThread();
    EXPECT_EQ(rt.totalThreads(), 7);

    rt.enterTransientSingleThread();
    EXPECT_TRUE(rt.transient());
    EXPECT_EQ(rt.totalThreads(), 1); // only m0
    EXPECT_EQ(rt.savedCensus().total(), 7);

    rt.expandFromTransient();
    EXPECT_FALSE(rt.transient());
    EXPECT_EQ(rt.totalThreads(), 7);
}

TEST_F(GoRuntimeTest, TransientChargesBlockingTimeout)
{
    GoRuntimeModel with_blocking(ctx);
    with_blocking.start(3, 2);
    with_blocking.addBlockingThread();
    SimContext ctx2;
    GoRuntimeModel without(ctx2);
    without.start(3, 2);

    const auto t0 = ctx.now();
    with_blocking.enterTransientSingleThread();
    const auto blocked_cost = ctx.now() - t0;
    const auto t1 = ctx2.now();
    without.enterTransientSingleThread();
    const auto clean_cost = ctx2.now() - t1;
    // Draining a parked blocking thread waits for its time-out.
    EXPECT_GT(blocked_cost.toMs(),
              clean_cost.toMs() +
                  ctx.costs().blockingThreadTimeout.toMs() * 0.99);
}

TEST_F(GoRuntimeTest, StateMachineViolationsPanic)
{
    GoRuntimeModel rt(ctx);
    EXPECT_DEATH(rt.enterTransientSingleThread(), "before start");
    rt.start(3, 2);
    EXPECT_DEATH(rt.expandFromTransient(), "without transient");
    rt.enterTransientSingleThread();
    EXPECT_DEATH(rt.enterTransientSingleThread(), "already transient");
    EXPECT_DEATH(rt.addBlockingThread(), "while transient");
    EXPECT_DEATH(rt.start(1, 1), "already started");
}

TEST_F(GoRuntimeTest, AdoptTransientState)
{
    GoRuntimeModel tmpl(ctx);
    tmpl.start(3, 2);
    tmpl.addBlockingThread();
    tmpl.enterTransientSingleThread();

    GoRuntimeModel child(ctx);
    child.adoptTransientState(tmpl);
    EXPECT_TRUE(child.transient());
    child.expandFromTransient();
    EXPECT_EQ(child.totalThreads(), 6);
    // Template still transient and reusable.
    EXPECT_TRUE(tmpl.transient());

    GoRuntimeModel not_transient(ctx);
    not_transient.start(1, 1);
    GoRuntimeModel other(ctx);
    EXPECT_DEATH(other.adoptTransientState(not_transient),
                 "not transient");
}

TEST(GuestKernelTest, FreshInitAndMounts)
{
    SimContext ctx;
    GuestKernel guest(ctx, "g");
    EXPECT_FALSE(guest.initialized());
    guest.initializeFresh();
    EXPECT_TRUE(guest.initialized());
    EXPECT_DEATH(guest.initializeFresh(), "double init");
    guest.mountRootfs(9);
    EXPECT_EQ(guest.mounts(), 9);
    EXPECT_EQ(ctx.stats().value("guest.mounts"), 9);
}

TEST(GuestKernelTest, SyscallDispatchFollowsPolicy)
{
    SimContext ctx;
    GuestKernel guest(ctx, "g");
    EXPECT_TRUE(guest.syscall("read"));
    EXPECT_TRUE(guest.syscall("futex"));
    EXPECT_FALSE(guest.syscall("ptrace"));
    EXPECT_EQ(ctx.stats().value("guest.denied_syscalls"), 1);
    EXPECT_EQ(ctx.stats().value("guest.handled_syscalls"), 1);
    EXPECT_EQ(ctx.stats().value("guest.allowed_syscalls"), 1);
}

TEST(GuestKernelTest, FuncEntryPointTrap)
{
    SimContext ctx;
    GuestKernel guest(ctx, "g");
    EXPECT_FALSE(guest.atFuncEntryPoint());
    guest.reachFuncEntryPoint();
    EXPECT_TRUE(guest.atFuncEntryPoint());
    EXPECT_EQ(ctx.stats().value("guest.func_entry_traps"), 1);
    guest.leaveFuncEntryPoint();
    EXPECT_FALSE(guest.atFuncEntryPoint());
}

} // namespace
} // namespace catalyzer::guest
