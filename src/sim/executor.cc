#include "sim/executor.h"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <system_error>

#include "sim/logging.h"

namespace catalyzer::sim {

ParallelExecutor::~ParallelExecutor()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        stopping_ = true;
    }
    wake_.notify_all();
    for (std::thread &t : threads_)
        t.join();
}

void
ParallelExecutor::forEach(std::size_t n,
                          const std::function<void(std::size_t)> &fn)
{
    // Checked in every mode, so a nested call fails the same way at
    // one worker as at eight instead of deadlocking only the pool.
    if (busy_.exchange(true, std::memory_order_acq_rel))
        panic("ParallelExecutor::forEach: called from inside fn or "
              "from a second thread during a call (not reentrant)");
    struct Release
    {
        std::atomic<bool> &busy;
        ~Release() { busy.store(false, std::memory_order_release); }
    } release{busy_};

    if (serial() || n <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }
    fanOut(n, fn);
}

void
ParallelExecutor::fanOut(std::size_t n,
                         const std::function<void(std::size_t)> &fn)
{
    if (threads_.empty()) {
        threads_.reserve(static_cast<std::size_t>(workers_ - 1));
        for (int w = 1; w < workers_; ++w)
            threads_.emplace_back([this] { workerLoop(); });
    }
    {
        std::lock_guard<std::mutex> lock(mu_);
        fn_ = &fn;
        n_ = n;
        next_.store(0, std::memory_order_relaxed);
        failed_.store(false, std::memory_order_relaxed);
        active_ = threads_.size();
        ++generation_;
    }
    wake_.notify_all();
    drain();
    {
        // Every pool thread has left drain() once active_ is zero, so
        // none can still read fn_ when the next call replaces it.
        std::unique_lock<std::mutex> lock(mu_);
        done_.wait(lock, [this] { return active_ == 0; });
        fn_ = nullptr;
    }
    if (failed_.load(std::memory_order_relaxed))
        panic("ParallelExecutor::forEach: a worker threw");
}

void
ParallelExecutor::drain()
{
    for (;;) {
        const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
        if (i >= n_ || failed_.load(std::memory_order_relaxed))
            return;
        try {
            (*fn_)(i);
        } catch (...) {
            // Simulation handlers report failure via panic(); an
            // exception must not escape a pool thread, so the caller
            // panics for it once the call's barrier is reached.
            failed_.store(true, std::memory_order_relaxed);
            return;
        }
    }
}

void
ParallelExecutor::workerLoop()
{
    // Threads start before the first generation bump, so generation 0
    // is the one already seen.
    std::uint64_t seen = 0;
    for (;;) {
        {
            std::unique_lock<std::mutex> lock(mu_);
            wake_.wait(lock,
                       [&] { return stopping_ || generation_ != seen; });
            if (stopping_)
                return;
            seen = generation_;
        }
        drain();
        std::lock_guard<std::mutex> lock(mu_);
        if (--active_ == 0)
            done_.notify_one();
    }
}

int
ParallelExecutor::threadsFromEnv(int fallback)
{
    const char *raw = std::getenv("CATALYZER_SIM_THREADS");
    int threads = fallback;
    if (raw != nullptr && *raw != '\0') {
        const char *last = raw + std::strlen(raw);
        const auto [end, ec] = std::from_chars(raw, last, threads);
        if (end != last) {
            warn("CATALYZER_SIM_THREADS=\"%s\" is not a whole number; "
                 "using %d",
                 raw, fallback);
            threads = fallback;
        } else if (ec == std::errc::result_out_of_range) {
            threads = *raw == '-' ? 1 : 256;
        }
    }
    return std::clamp(threads, 1, 256);
}

} // namespace catalyzer::sim
