/**
 * @file
 * The simulated host kernel: process table and the sfork primitive
 * (paper Sec. 4).
 */

#ifndef CATALYZER_HOSTOS_HOST_KERNEL_H
#define CATALYZER_HOSTOS_HOST_KERNEL_H

#include <map>
#include <memory>
#include <string>

#include "hostos/process.h"
#include "mem/frame_store.h"
#include "sim/context.h"

namespace catalyzer::hostos {

/**
 * Host kernel for one machine. Owns the frame store (physical memory)
 * and the process table; implements sfork with its memory, fd-table
 * and namespace semantics.
 */
class HostKernel
{
  public:
    explicit HostKernel(sim::SimContext &ctx);

    HostKernel(const HostKernel &) = delete;
    HostKernel &operator=(const HostKernel &) = delete;

    /** Create a fresh process (fork+exec of a runtime binary). */
    HostProcess &spawnProcess(const std::string &name);

    /**
     * The sfork primitive: like fork (COW memory, a copy of the fd
     * table, the parent's layout), but (a) every mapping is downgraded
     * to copy-on-write so sandboxes stay isolated (no MAP_SHARED file
     * mappings are modelled), (b) the child gets fresh PID/USER
     * namespaces so ids seen before the fork stay consistent (Sec. 4,
     * Challenge-3), and (c) the caller must have collapsed to a single
     * thread (transient single-thread) first — violating that is a
     * guest bug and panics.
     * The child's address space takes @p child_name.
     */
    HostProcess &sfork(HostProcess &parent, std::string child_name);

    /**
     * dup() on @p proc's fd table with the Fig. 16d latency model.
     * Returns the new fd.
     */
    int dup(HostProcess &proc, int oldfd, bool lazy = false);

    /** Terminate and reap a process, releasing its memory. */
    void exitProcess(Pid pid);

    std::size_t processCount() const { return procs_.size(); }

    mem::FrameStore &frames() { return frames_; }
    sim::SimContext &context() { return ctx_; }

    /** Machine-wide resident pages (all live frames). */
    std::size_t machineRssPages() const { return frames_.liveFrames(); }

  private:
    NamespaceId freshNamespace() { return next_ns_++; }

    sim::SimContext &ctx_;
    mem::FrameStore frames_;
    std::map<Pid, std::unique_ptr<HostProcess>> procs_;
    Pid next_pid_ = 100;
    NamespaceId next_ns_ = 1;
};

} // namespace catalyzer::hostos

#endif // CATALYZER_HOSTOS_HOST_KERNEL_H
