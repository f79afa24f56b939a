/**
 * @file
 * The guest kernel (gVisor's Sentry, modelled).
 *
 * Holds the in-guest system state that checkpoint must capture and
 * restore must rebuild: the metadata object graph, the I/O connection
 * table, the mount table, and the Go runtime's thread census.
 */

#ifndef CATALYZER_GUEST_GUEST_KERNEL_H
#define CATALYZER_GUEST_GUEST_KERNEL_H

#include <string>

#include "guest/go_runtime.h"
#include "guest/syscall_policy.h"
#include "objgraph/object_graph.h"
#include "sim/context.h"
#include "vfs/io_connection.h"

namespace catalyzer::guest {

/**
 * One sandbox's guest kernel instance.
 *
 * Construction is cheap; initializeFresh() pays the Sentry's internal
 * init cost (the non-KVM part of "create and initialize kernel/platform"
 * in the paper's Fig. 2) and startGoRuntime() boots the thread model.
 */
class GuestKernel
{
  public:
    GuestKernel(sim::SimContext &ctx, std::string name);

    /** Sentry-internal structure initialization (fresh boot only). */
    void initializeFresh();

    /** Boot the Go runtime with the standard census (GC + scheds). */
    void startGoRuntime(int runtime_threads = 3, int scheduling_threads = 2);

    /** Mount @p count filesystems into the guest namespace. */
    void mountRootfs(int count);

    /**
     * Dispatch a guest syscall by name under the sfork policy.
     * Denied syscalls return false (the sandbox rejects them); allowed
     * and handled syscalls charge the base cost and succeed.
     */
    bool syscall(const std::string &name);

    /**
     * The Gen-Func-Image syscall: the wrapper program traps here at the
     * func-entry point and blocks until checkpoint (Sec. 5).
     */
    void reachFuncEntryPoint();
    bool atFuncEntryPoint() const { return at_entry_point_; }
    void leaveFuncEntryPoint() { at_entry_point_ = false; }

    /** Kernel metadata object graph (captured/restored by snapshot/). */
    const objgraph::ObjectGraph &state() const { return state_; }
    void setState(objgraph::ObjectGraph state) { state_ = std::move(state); }

    vfs::IoConnectionTable &io() { return io_; }
    const vfs::IoConnectionTable &io() const { return io_; }

    /**
     * Descriptors whose backing connection is still down: a restored
     * guest passes every checkpointed fd to the function at once, tagged
     * as not re-opened until its connection comes up (Sec. 3.3).
     */
    std::size_t pendingFds() const;

    GoRuntimeModel &threads() { return threads_; }
    const GoRuntimeModel &threads() const { return threads_; }

    int mounts() const { return mounts_; }
    bool initialized() const { return initialized_; }
    const std::string &name() const { return name_; }

    sim::SimContext &context() { return ctx_; }

  private:
    sim::SimContext &ctx_;
    std::string name_;
    objgraph::ObjectGraph state_;
    vfs::IoConnectionTable io_;
    GoRuntimeModel threads_;
    int mounts_ = 0;
    bool initialized_ = false;
    bool at_entry_point_ = false;
};

} // namespace catalyzer::guest

#endif // CATALYZER_GUEST_GUEST_KERNEL_H
