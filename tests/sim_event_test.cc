/**
 * @file
 * Tests for the parallel discrete-event core: per-machine event
 * queues, conservative-lookahead horizons and the executor.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <iterator>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "sim/clock.h"
#include "sim/event_queue.h"
#include "sim/executor.h"

namespace catalyzer::sim {
namespace {

using namespace time_literals;

TEST(EventQueueTest, RunsInTimeOrderWithFifoTieBreak)
{
    EventQueue q;
    std::vector<int> order;
    // Posted deliberately out of time order; the two 5 ms events must
    // keep their posting order (FIFO tie-break).
    q.post(5_ms, [&] { order.push_back(1); });
    q.post(2_ms, [&] { order.push_back(0); });
    q.post(5_ms, [&] { order.push_back(2); });
    q.post(9_ms, [&] { order.push_back(3); });

    EXPECT_EQ(q.nextAt(), 2_ms);
    EXPECT_EQ(q.runAll(nullptr), 4u);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
    EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, HorizonIsExclusiveAndAdvancesTheClock)
{
    EventQueue q;
    VirtualClock clock;
    std::vector<int> order;
    q.post(1_ms, [&] { order.push_back(0); });
    q.post(3_ms, [&] { order.push_back(1); });
    q.post(5_ms, [&] { order.push_back(2); });

    // Events strictly below the horizon run; the 3 ms event at the
    // horizon waits for the next round.
    EXPECT_EQ(q.runUntil(3_ms, &clock), 1u);
    EXPECT_EQ(order, (std::vector<int>{0}));
    // The clock idled forward to the event's release time.
    EXPECT_EQ(clock.now(), 1_ms);
    EXPECT_EQ(q.nextAt(), 3_ms);

    EXPECT_EQ(q.runAll(&clock), 2u);
    EXPECT_EQ(clock.now(), 5_ms);
}

TEST(EventQueueTest, LaggingClockIsNotMovedBackwards)
{
    EventQueue q;
    VirtualClock clock;
    clock.advance(10_ms); // machine still busy past the release time
    q.post(4_ms, [] {});
    EXPECT_EQ(q.runAll(&clock), 1u);
    // Virtual clocks are monotonic: a late machine serves back to
    // back, it does not rewind.
    EXPECT_EQ(clock.now(), 10_ms);
}

TEST(EventQueueTest, HandlersMayPostFollowUpEvents)
{
    EventQueue q;
    std::vector<int> order;
    q.post(1_ms, [&] {
        order.push_back(0);
        q.post(2_ms, [&] { order.push_back(1); });
    });
    EXPECT_EQ(q.runAll(nullptr), 2u);
    EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST(ConservativeSchedulerTest, HorizonIsMinNextPlusLookahead)
{
    std::vector<EventQueue> queues(3);
    queues[0].post(8_ms, [] {});
    queues[1].post(3_ms, [] {});
    // queues[2] stays empty.
    ConservativeScheduler sched(queues, 2_ms);

    // min(nextAt) = 3 ms, lookahead 2 ms -> horizon 5 ms.
    EXPECT_EQ(sched.nextHorizon(100_ms), 5_ms);
    // The barrier clamps the horizon.
    EXPECT_EQ(sched.nextHorizon(4_ms), 4_ms);
    EXPECT_FALSE(sched.done());
}

TEST(ConservativeSchedulerTest, UnboundedLookaheadClampsToBarrier)
{
    std::vector<EventQueue> queues(2);
    queues[0].post(1_ms, [] {});
    ConservativeScheduler sched(
        queues, ConservativeScheduler::unboundedLookahead());
    // No overflow: the horizon lands exactly on the barrier, so the
    // whole epoch drains in one round.
    EXPECT_EQ(sched.nextHorizon(500_ms), 500_ms);
}

TEST(ConservativeSchedulerTest, RunRoundsDrainsAllQueuesUpToBarrier)
{
    std::vector<EventQueue> queues(2);
    std::vector<int> ran;
    for (int i = 0; i < 4; ++i) {
        queues[0].post(SimTime::milliseconds(2.0 * i + 1),
                       [&ran, i] { ran.push_back(i); });
        queues[1].post(SimTime::milliseconds(2.0 * i + 1),
                       [&ran, i] { ran.push_back(10 + i); });
    }
    ConservativeScheduler sched(queues, 1_ms);
    std::size_t rounds = 0;
    sched.runRounds(4_ms, [&](SimTime horizon) {
        ++rounds;
        std::size_t n = 0;
        for (auto &q : queues)
            n += q.runUntil(horizon, nullptr);
        return n;
    });
    // Events below the 4 ms barrier ran (1 ms and 3 ms from each
    // queue); the 5/7 ms tail belongs to the next epoch.
    EXPECT_EQ(ran.size(), 4u);
    EXPECT_FALSE(sched.done());
    EXPECT_EQ(queues[0].nextAt(), 5_ms);
    // Short 1 ms lookahead: draining 2 timestamps takes >= 2 rounds.
    EXPECT_GE(rounds, 2u);
}

TEST(ConservativeSchedulerDeathTest, StuckRoundBelowBarrierPanics)
{
    std::vector<EventQueue> queues(1);
    queues[0].post(1_ms, [] {});
    ConservativeScheduler sched(queues, 1_ms);
    // A round callback that refuses to run events cannot make
    // progress below the barrier: spinning forever is a bug.
    EXPECT_DEATH(sched.runRounds(100_ms, [](SimTime) { return 0u; }),
                 "no progress");
}

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
