/**
 * @file
 * Allocation guard for a steady-state sfork request. This binary
 * replaces the global operator new with a counting one, so the count
 * is exact: once the template exists, one bootFork + invoke + teardown
 * cycle must stay within a fixed number of heap allocations, and empty
 * fd tables must cost none.
 */

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "apps/app_profile.h"
#include "catalyzer/runtime.h"
#include "sandbox/function_artifacts.h"
#include "sandbox/machine.h"
#include "vfs/fd_table.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_allocations{0};
std::atomic<std::size_t> g_bytes{0};

void *
countedAlloc(std::size_t bytes)
{
    if (g_counting.load(std::memory_order_relaxed)) {
        g_allocations.fetch_add(1, std::memory_order_relaxed);
        g_bytes.fetch_add(bytes, std::memory_order_relaxed);
    }
    if (void *p = std::malloc(bytes ? bytes : 1))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *operator new(std::size_t bytes) { return countedAlloc(bytes); }
void *operator new[](std::size_t bytes) { return countedAlloc(bytes); }
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

namespace catalyzer {
namespace {

/** Heap allocations (and bytes) of one sfork boot, request, teardown. */
std::pair<std::size_t, std::size_t>
forkCycle(core::CatalyzerRuntime &runtime, sandbox::FunctionArtifacts &fn)
{
    g_allocations = 0;
    g_bytes = 0;
    g_counting = true;
    {
        sandbox::BootResult boot = runtime.bootFork(fn);
        boot.instance->invoke();
    }
    g_counting = false;
    return {g_allocations.load(), g_bytes.load()};
}

/**
 * The most allocations (and bytes) of one cycle over @p cycles
 * steady-state cycles on a fresh machine. The first cycles build the
 * template and grow the machine's registries; the rest are what a boot
 * storm repeats, varying by a node or two with frame-span history.
 */
std::pair<std::size_t, std::size_t>
steadyStateMax(int cycles)
{
    sandbox::Machine machine(42);
    sandbox::FunctionRegistry registry(machine);
    core::CatalyzerRuntime runtime(machine);
    auto &fn = registry.artifactsFor(apps::appByName("c-hello"));
    for (int i = 0; i < 8; ++i)
        forkCycle(runtime, fn);
    std::pair<std::size_t, std::size_t> most{0, 0};
    for (int i = 0; i < cycles; ++i) {
        const auto [calls, bytes] = forkCycle(runtime, fn);
        most.first = std::max(most.first, calls);
        most.second = std::max(most.second, bytes);
    }
    return most;
}

TEST(SforkAllocTest, SteadyStateCycleStaysWithinBudget)
{
    const auto [calls, bytes] = steadyStateMax(8);
    std::printf("steady-state sfork cycle (c-hello): at most %zu "
                "allocations, %zu bytes\n",
                calls, bytes);
    // 30 of these are the Private-EPT nodes of the request's
    // single-page COW copies, about 20 the child's copy of the
    // template's run map.
    EXPECT_LE(calls, 67u);
    EXPECT_LE(bytes, 6u * 1024);
    // Repeatable: the count is a property of the code, not the run.
    EXPECT_EQ(steadyStateMax(8).first, calls);
}

TEST(SforkAllocTest, EmptyFdTablesAllocateNothing)
{
    g_allocations = 0;
    g_counting = true;
    {
        vfs::FdTable fds;
        const vfs::FdTable child = fds.clone();
        EXPECT_EQ(child.capacity(), vfs::FdTable::kInitialCapacity);
        EXPECT_FALSE(child.nextAllocationExpands());
    }
    g_counting = false;
    EXPECT_EQ(g_allocations.load(), 0u);
}

} // namespace
} // namespace catalyzer
