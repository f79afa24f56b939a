/**
 * @file
 * Tests for the parallel replay core: the persistent executor that
 * serves share-nothing machines concurrently.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <iterator>
#include <stdexcept>
#include <thread>
#include <vector>

#include "sim/executor.h"

namespace catalyzer::sim {
namespace {

TEST(ParallelExecutorTest, SerialModeRunsInIndexOrder)
{
    ParallelExecutor exec(1);
    EXPECT_TRUE(exec.serial());
    std::vector<std::size_t> order;
    exec.forEach(5, [&](std::size_t i) { order.push_back(i); });
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ParallelExecutorTest, ParallelModeRunsEveryIndexExactlyOnce)
{
    ParallelExecutor exec(8);
    EXPECT_FALSE(exec.serial());
    constexpr std::size_t kN = 1000;
    std::vector<std::atomic<int>> hits(kN);
    exec.forEach(kN, [&](std::size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < kN; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ParallelExecutorTest, WritesAreVisibleAfterTheImplicitBarrier)
{
    ParallelExecutor exec(4);
    std::vector<std::size_t> out(256, 0);
    exec.forEach(out.size(), [&](std::size_t i) { out[i] = i * i; });
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], i * i);
}

TEST(ParallelExecutorTest, OnePoolServesManyCallsOfEverySize)
{
    // Hand-off bugs (a lost wake-up, a pool thread still reading the
    // previous call's fn) show only across many back-to-back calls.
    ParallelExecutor exec(4);
    constexpr std::size_t kSizes[] = {0, 1, 2, 3, 4, 5, 64};
    constexpr std::size_t kCalls = 10500;
    std::vector<int> hits(64, 0);
    for (std::size_t call = 0; call < kCalls; ++call) {
        const std::size_t n = kSizes[call % std::size(kSizes)];
        std::fill(hits.begin(), hits.end(), 0);
        // Plain ints: each index is written by one thread, and the
        // caller reads them only after the call's barrier.
        exec.forEach(n, [&](std::size_t i) { hits[i] += 1; });
        for (std::size_t i = 0; i < hits.size(); ++i) {
            ASSERT_EQ(hits[i], i < n ? 1 : 0)
                << "call " << call << " n " << n << " index " << i;
        }
    }
}

/** Threads of this process, or 0 where /proc is not mounted. */
std::size_t
liveThreads()
{
    std::error_code ec;
    std::filesystem::directory_iterator it("/proc/self/task", ec);
    if (ec)
        return 0;
    return static_cast<std::size_t>(
        std::distance(it, std::filesystem::directory_iterator{}));
}

TEST(ParallelExecutorTest, StartsThreadsOnFirstFanOutAndJoinsThem)
{
    const std::size_t before = liveThreads();
    if (before == 0)
        GTEST_SKIP() << "/proc/self/task is not available";
    // Calls that do not fan out start no thread, and destroying an
    // executor that never fanned out returns at once.
    const auto start = std::chrono::steady_clock::now();
    {
        ParallelExecutor exec(8);
        exec.forEach(0, [](std::size_t) {});
        exec.forEach(1, [](std::size_t) {});
        EXPECT_EQ(liveThreads(), before);
    }
    EXPECT_LT(std::chrono::steady_clock::now() - start,
              std::chrono::seconds(1));
    {
        ParallelExecutor serial(1);
        serial.forEach(100, [](std::size_t) {});
        EXPECT_EQ(liveThreads(), before);
    }
    {
        ParallelExecutor exec(4);
        exec.forEach(2, [](std::size_t) {});
        EXPECT_EQ(liveThreads(), before + 3);
        exec.forEach(100, [](std::size_t) {});
        EXPECT_EQ(liveThreads(), before + 3) << "threads are reused";
    }
    // A joined thread may linger in /proc for a moment after join.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (liveThreads() != before &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_EQ(liveThreads(), before);
}

TEST(ParallelExecutorDeathTest, ThrowFromAnyIndexPanics)
{
    for (const std::size_t bad : {std::size_t{0}, std::size_t{17},
                                  std::size_t{63}}) {
        EXPECT_DEATH(
            {
                ParallelExecutor exec(4);
                exec.forEach(64, [](std::size_t) {}); // pool parked
                exec.forEach(64, [bad](std::size_t i) {
                    if (i == bad)
                        throw std::runtime_error("handler failed");
                });
            },
            "a worker threw")
            << "throwing index " << bad;
    }
}

TEST(ParallelExecutorDeathTest, NestedForEachPanics)
{
    // Same failure at one worker as on the pool, where a nested call
    // would otherwise wait forever on threads that are busy with it.
    for (const int workers : {1, 4}) {
        EXPECT_DEATH(
            {
                ParallelExecutor exec(workers);
                exec.forEach(8, [&exec](std::size_t) {
                    exec.forEach(2, [](std::size_t) {});
                });
            },
            "not reentrant")
            << workers << " workers";
    }
}

TEST(ParallelExecutorTest, ThreadsFromEnvParsesAndClamps)
{
    ::unsetenv("CATALYZER_SIM_THREADS");
    EXPECT_EQ(ParallelExecutor::threadsFromEnv(1), 1);
    EXPECT_EQ(ParallelExecutor::threadsFromEnv(4), 4);
    ::setenv("CATALYZER_SIM_THREADS", "8", 1);
    EXPECT_EQ(ParallelExecutor::threadsFromEnv(1), 8);
    ::setenv("CATALYZER_SIM_THREADS", "0", 1);
    EXPECT_EQ(ParallelExecutor::threadsFromEnv(1), 1);
    ::setenv("CATALYZER_SIM_THREADS", "100000", 1);
    EXPECT_EQ(ParallelExecutor::threadsFromEnv(1), 256);
    ::setenv("CATALYZER_SIM_THREADS", "not-a-number", 1);
    EXPECT_EQ(ParallelExecutor::threadsFromEnv(3), 3);
    // The whole value must be the number: a numeric prefix is not.
    ::setenv("CATALYZER_SIM_THREADS", "2x", 1);
    EXPECT_EQ(ParallelExecutor::threadsFromEnv(3), 3);
    ::setenv("CATALYZER_SIM_THREADS", "8 workers", 1);
    EXPECT_EQ(ParallelExecutor::threadsFromEnv(3), 3);
    // Beyond int range still clamps, on either side.
    ::setenv("CATALYZER_SIM_THREADS", "99999999999", 1);
    EXPECT_EQ(ParallelExecutor::threadsFromEnv(3), 256);
    ::setenv("CATALYZER_SIM_THREADS", "-99999999999", 1);
    EXPECT_EQ(ParallelExecutor::threadsFromEnv(3), 1);
    ::unsetenv("CATALYZER_SIM_THREADS");
}

} // namespace
} // namespace catalyzer::sim
