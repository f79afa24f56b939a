#include "sandbox/instance.h"

#include <algorithm>

#include "sim/clock.h"
#include "sim/logging.h"
#include "sim/metric_catalog.h"
#include "snapshot/io_reconnect.h"

namespace catalyzer::sandbox {

SandboxInstance::SandboxInstance(Machine &machine, FunctionArtifacts &fn,
                                 std::string name,
                                 hostos::HostProcess &proc)
    : machine_(machine), fn_(fn), name_(std::move(name)), proc_(&proc)
{
}

SandboxInstance::~SandboxInstance()
{
    if (!released_ && proc_) {
        // Detach the fault observer before the space goes away.
        if (ws_recorder_ || lifetime_pager_)
            proc_->space().setFaultObserver(nullptr);
        // Drop the rootfs view and guest first, then reap the process
        // (which releases the address space's frames).
        rootfs_.reset();
        guest_.reset();
        machine_.host().exitProcess(proc_->pid());
        released_ = true;
    }
}

void
SandboxInstance::setGuest(std::unique_ptr<guest::GuestKernel> guest)
{
    guest_ = std::move(guest);
}

void
SandboxInstance::setRootfs(std::unique_ptr<vfs::OverlayRootfs> rootfs)
{
    rootfs_ = std::move(rootfs);
}

sim::SimTime
SandboxInstance::invoke()
{
    auto &ctx = machine_.ctx();
    const apps::AppProfile &app = fn_.app();
    sim::Stopwatch watch(ctx.clock());
    ++invocations_;

    //
    // Touch the handler's working set: a small fraction of the heap
    // (Insight II). Pages are strided across the whole heap so restored
    // instances fault against the Base-EPT and sforked ones COW.
    //
    if (heap_pages_ > 0) {
        auto touched = static_cast<std::size_t>(
            static_cast<double>(heap_pages_) * app.execTouchFraction);
        touched = std::clamp<std::size_t>(touched, 1, heap_pages_);
        const std::size_t stride = std::max<std::size_t>(
            heap_pages_ / touched, 1);
        const auto writes = static_cast<std::size_t>(
            static_cast<double>(touched) * app.execWriteFraction);
        // touched * stride <= heap_pages_: the pages rise in order.
        proc_->space().touchStrided(heap_va_, touched, stride, writes);
    }

    //
    // Use the request-path I/O connections. On a restored instance the
    // not-yet-established ones reconnect on demand, right here — this is
    // the cost on-demand I/O reconnection moves off the boot path.
    //
    auto &conns = guest_->io().all();
    const auto want = static_cast<std::size_t>(
        static_cast<double>(conns.size()) * app.ioRequestFraction);
    std::size_t used = 0;
    for (auto &conn : conns) {
        if (!conn.usedByRequests || used >= std::max<std::size_t>(want, 1))
            continue;
        ++used;
        if (!conn.established) {
            snapshot::reconnectConnection(ctx, conn, &fn_.fsServer());
            ctx.stats().incr(metrics::kExecLazyReconnects);
        }
        // The handler's actual I/O goes through the guest syscall
        // policy (Table 1): reads for files, recvmsg for sockets.
        guest_->syscall(conn.kind == vfs::ConnKind::Socket ? "recvmsg"
                                                           : "read");
    }

    // On the very first request, the connections the function touches
    // right after boot come due (lazily, if restore left them down).
    if (invocations_ == 1) {
        for (auto &conn : conns) {
            if (conn.usedAtStartup && !conn.established) {
                snapshot::reconnectConnection(ctx, conn, &fn_.fsServer());
                ctx.stats().incr(metrics::kExecStartupReconnects);
            }
        }
    }

    // Request logging goes through the stateless overlay rootFS (all
    // writes land in sandbox memory; persistent logs would use the FS
    // server's read/write grants).
    if (rootfs_) {
        rootfs_->write(fn_.requestLogPath(), 256 + 64 * (invocations_ % 4));
    }

    // The handler's own compute (minus any work the fine-grained entry
    // point moved into the checkpoint).
    ctx.charge(app.execComputeCost * (1.0 - prep_fraction_));
    ctx.stats().incr(metrics::kExecInvocations);

    // First response: the restore-to-first-response recording window
    // (working-set prefetch) closes here.
    if (invocations_ == 1)
        finishWorkingSetWindow();
    return watch.elapsed();
}

void
SandboxInstance::armWorkingSetRecorder(
    std::unique_ptr<prefetch::FaultRecorder> recorder)
{
    if (ws_recorder_)
        finishWorkingSetWindow();
    ws_recorder_ = std::move(recorder);
    if (ws_recorder_)
        proc_->space().setFaultObserver(ws_recorder_.get());
}

void
SandboxInstance::finishWorkingSetWindow()
{
    if (!ws_recorder_)
        return;
    ws_recorder_->finish(machine_.ctx().stats());
    // Hand the observer slot back to the lifetime pager, if one is
    // installed (remote-sfork instances keep pulling pages after the
    // first response).
    if (proc_)
        proc_->space().setFaultObserver(lifetime_pager_.get());
}

void
SandboxInstance::setLifetimePager(
    std::unique_ptr<mem::FaultObserver> pager)
{
    if (ws_recorder_)
        finishWorkingSetWindow();
    lifetime_pager_ = std::move(pager);
    if (proc_)
        proc_->space().setFaultObserver(lifetime_pager_.get());
}

void
SandboxInstance::pretouchWorkingSet()
{
    const apps::AppProfile &app = fn_.app();
    if (heap_pages_ == 0 || prep_fraction_ <= 0.0)
        return;
    auto touched = static_cast<std::size_t>(
        static_cast<double>(heap_pages_) * app.execTouchFraction);
    touched = std::clamp<std::size_t>(touched, 1, heap_pages_);
    const std::size_t stride =
        std::max<std::size_t>(heap_pages_ / touched, 1);
    const auto prep = static_cast<std::size_t>(
        static_cast<double>(touched) * prep_fraction_);
    const auto writes = static_cast<std::size_t>(
        static_cast<double>(touched) * app.execWriteFraction);
    proc_->space().touchStrided(heap_va_, prep, stride, writes);
}

snapshot::GuestState
SandboxInstance::captureState() const
{
    snapshot::GuestState state;
    state.app = &fn_.app();
    state.kernelGraph = guest_->state();
    state.ioConns = guest_->io().all();
    state.memoryPages = heap_pages_;
    return state;
}

} // namespace catalyzer::sandbox
