/**
 * @file
 * The multi-threaded executor that drains per-machine event queues
 * concurrently. Determinism does not depend on thread count: workers
 * only run share-nothing per-machine work, and every cross-machine
 * reduction happens on the calling thread in a fixed order.
 */

#ifndef CATALYZER_SIM_EXECUTOR_H
#define CATALYZER_SIM_EXECUTOR_H

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace catalyzer::sim {

/**
 * Fan-out helper for per-machine simulation work: a persistent pool.
 *
 * forEach(n, fn) invokes fn(i) exactly once for every i in [0, n),
 * spread over the caller and up to workers - 1 pool threads pulling
 * indices from a shared atomic counter, in index order. With
 * workers <= 1, or n <= 1, it is a plain loop on the calling thread —
 * the mode every byte-compare regression baseline runs in.
 *
 * The pool threads start on the first forEach that fans out, park
 * between calls, and are joined by the destructor; an executor that
 * never fans out starts none. forEach is not reentrant: a call from
 * inside fn (or from a second thread during a call) panics rather than
 * deadlocking the pool.
 *
 * fn must not touch state shared across indices without its own
 * synchronization; the executor provides none beyond the implicit
 * barrier when forEach returns (all work finished, all writes made by
 * workers visible to the caller). An exception escaping fn on a fanned
 * out call panics ("a worker threw").
 */
class ParallelExecutor
{
  public:
    /** @p workers <= 1 means serial execution on the caller. */
    explicit ParallelExecutor(int workers) : workers_(workers) {}
    ~ParallelExecutor();

    ParallelExecutor(const ParallelExecutor &) = delete;
    ParallelExecutor &operator=(const ParallelExecutor &) = delete;

    bool serial() const { return workers_ <= 1; }

    /** Run fn(0) .. fn(n-1), returning once all have finished. */
    void forEach(std::size_t n, const std::function<void(std::size_t)> &fn);

    /**
     * Worker count from the CATALYZER_SIM_THREADS environment knob;
     * @p fallback when unset/empty, or (with a warning) when the value
     * is not a whole decimal number. Values are clamped to [1, 256].
     */
    static int threadsFromEnv(int fallback = 1);

  private:
    /** Fan fn over the pool; the caller drains alongside. */
    void fanOut(std::size_t n, const std::function<void(std::size_t)> &fn);
    /** Pull and run indices of the current call until none are left. */
    void drain();
    /** Pool thread body: one drain per generation until stopping. */
    void workerLoop();

    const int workers_;

    // Set for the duration of a forEach; catches nested calls.
    std::atomic<bool> busy_{false};

    // The current call. Written by the caller under mu_ before the
    // generation bump, read by pool threads only between their wake-up
    // and their active_ decrement.
    const std::function<void(std::size_t)> *fn_ = nullptr;
    std::size_t n_ = 0;
    std::atomic<std::size_t> next_{0};
    std::atomic<bool> failed_{false};

    std::mutex mu_;
    std::condition_variable wake_; // pool threads: new generation
    std::condition_variable done_; // caller: active_ reached zero
    std::uint64_t generation_ = 0; // guarded by mu_
    std::size_t active_ = 0;       // guarded by mu_
    bool stopping_ = false;        // guarded by mu_

    // Declared last: the threads use every member above.
    std::vector<std::thread> threads_;
};

} // namespace catalyzer::sim

#endif // CATALYZER_SIM_EXECUTOR_H
