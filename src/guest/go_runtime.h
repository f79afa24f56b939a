/**
 * @file
 * Go-runtime thread model with transient single-thread support
 * (paper Sec. 4.1).
 *
 * gVisor's Sentry is a Go program: runtime threads (GC, preemption),
 * scheduling threads (Ms running goroutines) and blocking threads
 * (goroutines parked in blocking host syscalls). Linux can only fork a
 * single-threaded process, so Catalyzer modifies the runtime to merge all
 * threads into one (saving their contexts in memory), sforks, and then
 * re-expands in the child.
 */

#ifndef CATALYZER_GUEST_GO_RUNTIME_H
#define CATALYZER_GUEST_GO_RUNTIME_H

#include "sim/context.h"

namespace catalyzer::guest {

/** Thread census of the Go runtime. */
struct ThreadCensus
{
    int runtime = 0;    ///< GC / background threads
    int scheduling = 0; ///< M threads (m0 included)
    int blocking = 0;   ///< threads parked in blocking syscalls

    int total() const { return runtime + scheduling + blocking; }
};

/**
 * The modified Go runtime. All transitions charge their modelled cost;
 * the invariant "exactly one OS thread while transient" is what
 * HostKernel::sfork checks.
 */
class GoRuntimeModel
{
  public:
    explicit GoRuntimeModel(sim::SimContext &ctx);

    /** Boot the runtime with its initial thread census. */
    void start(int runtime_threads, int scheduling_threads);

    /** A goroutine entered a blocking syscall: one more OS thread. */
    void addBlockingThread();

    /**
     * Enter the transient single-thread state: notify runtime threads to
     * save their contexts and exit, collapse scheduling threads to m0,
     * and wait for blocking threads to hit their added time-out. Only
     * m0 survives. Used during template-sandbox generation (offline).
     */
    void enterTransientSingleThread();

    /**
     * Re-expand to the saved census after sfork (in the child) or after
     * template generation is rolled back (in the parent).
     */
    void expandFromTransient();

    /**
     * Child-side sfork bookkeeping: adopt the template's transient state
     * (saved thread contexts live in the COWed memory) so the child can
     * expandFromTransient() on its own.
     */
    void adoptTransientState(const GoRuntimeModel &tmpl);

    bool transient() const { return transient_; }
    int totalThreads() const;
    const ThreadCensus &savedCensus() const { return saved_; }
    bool started() const { return started_; }

  private:
    sim::SimContext &ctx_;
    ThreadCensus census_;
    ThreadCensus saved_;
    bool started_ = false;
    bool transient_ = false;
};

} // namespace catalyzer::guest

#endif // CATALYZER_GUEST_GO_RUNTIME_H
