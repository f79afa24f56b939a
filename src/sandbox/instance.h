/**
 * @file
 * A booted function instance (sandbox process + guest kernel + rootfs
 * view), with the request-execution model.
 */

#ifndef CATALYZER_SANDBOX_INSTANCE_H
#define CATALYZER_SANDBOX_INSTANCE_H

#include <memory>
#include <string>

#include "guest/guest_kernel.h"
#include "hostos/process.h"
#include "prefetch/fault_recorder.h"
#include "sandbox/function_artifacts.h"
#include "snapshot/func_image.h"
#include "vfs/overlay_rootfs.h"

namespace catalyzer::sandbox {

/**
 * One live instance. Owns the guest kernel and rootfs view; the host
 * process is owned by the host kernel and released on destruction.
 */
class SandboxInstance
{
  public:
    SandboxInstance(Machine &machine, FunctionArtifacts &fn,
                    std::string name, hostos::HostProcess &proc);
    ~SandboxInstance();

    SandboxInstance(const SandboxInstance &) = delete;
    SandboxInstance &operator=(const SandboxInstance &) = delete;

    /**
     * Handle one request: touch the handler's working set (faulting
     * against the Private/Base EPT as needed), use its I/O connections
     * (re-establishing lazily on a restored instance), and run the
     * handler's compute. Returns the request latency.
     */
    sim::SimTime invoke();

    /** Capture this instance's state for checkpointing. */
    snapshot::GuestState captureState() const;

    const apps::AppProfile &app() const { return fn_.app(); }
    FunctionArtifacts &artifacts() { return fn_; }
    Machine &machine() { return machine_; }

    hostos::HostProcess &proc() { return *proc_; }
    mem::AddressSpace &space() { return proc_->space(); }

    guest::GuestKernel &guest() { return *guest_; }
    const guest::GuestKernel &guest() const { return *guest_; }
    void setGuest(std::unique_ptr<guest::GuestKernel> guest);

    vfs::OverlayRootfs *rootfs() { return rootfs_.get(); }
    void setRootfs(std::unique_ptr<vfs::OverlayRootfs> rootfs);

    /** Memory layout, set by the boot pipeline. */
    void
    setMemoryLayout(mem::PageIndex binary_va, mem::PageIndex heap_va,
                    std::size_t heap_pages, bool heap_on_base)
    {
        binary_va_ = binary_va;
        heap_va_ = heap_va;
        heap_pages_ = heap_pages;
        heap_on_base_ = heap_on_base;
    }

    mem::PageIndex heapVa() const { return heap_va_; }
    std::size_t heapPages() const { return heap_pages_; }
    bool heapOnBase() const { return heap_on_base_; }

    void setBootLatency(sim::SimTime t) { boot_latency_ = t; }
    sim::SimTime bootLatency() const { return boot_latency_; }

    std::size_t invocations() const { return invocations_; }
    const std::string &name() const { return name_; }

    /**
     * Fine-grained func-entry point (Sec. 6.7): the checkpoint was taken
     * *after* this fraction of the handler's preparation work, so that
     * work is absent from every invocation.
     */
    void setPrepFraction(double f) { prep_fraction_ = f; }
    double prepFraction() const { return prep_fraction_; }

    /**
     * Fault in the working-set pages covered by the moved entry point
     * (checkpoint-side cost, off the invocation path).
     */
    void pretouchWorkingSet();

    /** RSS / PSS of the sandbox process (Fig. 14). */
    std::size_t rssBytes() const { return proc_->space().rssBytes(); }
    double pssBytes() const { return proc_->space().pssBytes(); }

    /**
     * Attach a working-set recorder observing this instance's faults
     * from now (restore time) until the end of the first invocation,
     * when the window closes and the trace/audit is committed.
     */
    void
    armWorkingSetRecorder(std::unique_ptr<prefetch::FaultRecorder> recorder);

    /**
     * Close the restore-to-first-response window now (normally called
     * by the first invoke(); exposed for boot paths that never serve a
     * request, e.g. checkpoint warming). Idempotent.
     */
    void finishWorkingSetWindow();

    const prefetch::FaultRecorder *workingSetRecorder() const
    {
        return ws_recorder_.get();
    }

    /**
     * Install a fault observer for this instance's whole lifetime (the
     * remote-sfork page puller). Unlike the working-set recorder it
     * never detaches at the first response; it is cleared only when the
     * instance dies. Mutually exclusive with the recorder (the address
     * space supports one observer).
     */
    void setLifetimePager(std::unique_ptr<mem::FaultObserver> pager);

    const mem::FaultObserver *lifetimePager() const
    {
        return lifetime_pager_.get();
    }

  private:
    Machine &machine_;
    FunctionArtifacts &fn_;
    std::string name_;
    hostos::HostProcess *proc_;
    std::unique_ptr<guest::GuestKernel> guest_;
    std::unique_ptr<vfs::OverlayRootfs> rootfs_;
    mem::PageIndex binary_va_ = 0;
    mem::PageIndex heap_va_ = 0;
    std::size_t heap_pages_ = 0;
    bool heap_on_base_ = false;
    sim::SimTime boot_latency_;
    std::size_t invocations_ = 0;
    double prep_fraction_ = 0.0;
    std::unique_ptr<prefetch::FaultRecorder> ws_recorder_;
    std::unique_ptr<mem::FaultObserver> lifetime_pager_;
    bool released_ = false;
};

} // namespace catalyzer::sandbox

#endif // CATALYZER_SANDBOX_INSTANCE_H
