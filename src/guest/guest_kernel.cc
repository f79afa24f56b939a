#include "guest/guest_kernel.h"

#include "sim/logging.h"
#include "sim/metric_catalog.h"

namespace catalyzer::guest {

GuestKernel::GuestKernel(sim::SimContext &ctx, std::string name)
    : ctx_(ctx), name_(std::move(name)), threads_(ctx)
{
}

void
GuestKernel::initializeFresh()
{
    if (initialized_)
        sim::panic("GuestKernel %s: double init", name_.c_str());
    initialized_ = true;
    ctx_.chargeCounted(metrics::kGuestSentryInits,
                       ctx_.costs().sentryInitFixed);
}

void
GuestKernel::startGoRuntime(int runtime_threads, int scheduling_threads)
{
    threads_.start(runtime_threads, scheduling_threads);
}

void
GuestKernel::mountRootfs(int count)
{
    mounts_ += count;
    ctx_.chargeCounted(metrics::kGuestMounts,
                       ctx_.costs().mountFs *
                           static_cast<std::int64_t>(count),
                       count);
}

bool
GuestKernel::syscall(const std::string &name)
{
    switch (classifySyscall(name)) {
      case SyscallClass::Denied:
        ctx_.stats().incr(metrics::kGuestDeniedSyscalls);
        return false;
      case SyscallClass::Handled:
        ctx_.stats().incr(metrics::kGuestHandledSyscalls);
        break;
      case SyscallClass::Allowed:
        ctx_.stats().incr(metrics::kGuestAllowedSyscalls);
        break;
    }
    ctx_.charge(ctx_.costs().syscallBase);
    return true;
}

void
GuestKernel::reachFuncEntryPoint()
{
    at_entry_point_ = true;
    // The Gen-Func-Image trap itself is one guest syscall.
    ctx_.charge(ctx_.costs().syscallBase);
    ctx_.stats().incr(metrics::kGuestFuncEntryTraps);
}

} // namespace catalyzer::guest
