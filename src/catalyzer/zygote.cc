#include "catalyzer/zygote.h"

#include <algorithm>

#include "sim/logging.h"
#include "sim/metric_catalog.h"

namespace catalyzer::core {

ZygotePool::ZygotePool(sandbox::Machine &machine) : machine_(machine) {}

hostos::KvmConfig
ZygotePool::kvmConfig()
{
    hostos::KvmConfig config;
    config.pmlEnabled = false;          // Fig. 16c
    config.kvcallocCacheEnabled = true; // Fig. 16b
    return config;
}

Zygote
ZygotePool::build(trace::TraceContext trace)
{
    auto &ctx = machine_.ctx();
    const auto &costs = ctx.costs();

    trace::ScopedSpan span(trace, "zygote-build");

    // Injected build failures: each failed attempt burns its timeout and
    // backs off; exhausting the budget aborts this build entirely.
    if (injector_ != nullptr)
        injector_->checkWithRetry(ctx, faults::FaultSite::ZygoteBuild);

    // Parse the *base* configuration and spawn the sandbox process.
    ctx.charge(costs.parseConfig);
    Zygote z;
    z.proc = &machine_.host().spawnProcess("zygote");
    z.guest = std::make_unique<guest::GuestKernel>(ctx, "zygote-kernel");

    // Allocate virtualization resources with the tuned host.
    hostos::KvmVm vm(ctx, kvmConfig());
    vm.createVm();
    for (int i = 0; i < 4; ++i)
        vm.createVcpu();
    vm.setUserMemoryRegions(costs.kvmMemoryRegions);

    z.guest->initializeFresh();
    z.guest->mountRootfs(costs.guestMounts); // base rootfs
    z.guest->startGoRuntime();

    // The Sentry's own working memory.
    const auto self_pages = static_cast<std::size_t>(costs.sentrySelfPages);
    const mem::PageIndex va =
        z.proc->space().mapAnon(self_pages, true, "sentry-self");
    z.proc->space().touchRange(va, self_pages, /*write=*/true);

    z.proc->setThreadCount(z.guest->threads().totalThreads());
    ++built_;
    ctx.stats().incr(metrics::kCatalyzerZygotesBuilt);
    return z;
}

void
ZygotePool::prewarm(std::size_t n)
{
    target_ = std::max(target_, n);
    for (std::size_t i = 0; i < n; ++i) {
        try {
            pool_.push_back(build());
        } catch (const faults::FaultError &) {
            // The offline builder hit a persistent fault; stop this
            // round — replenish() after later requests tops the pool
            // back up once the fault clears.
            machine_.ctx().stats().incr(metrics::kCatalyzerZygoteBuildAborts);
            break;
        }
    }
}

void
ZygotePool::replenish()
{
    while (pool_.size() < target_) {
        try {
            pool_.push_back(build());
        } catch (const faults::FaultError &) {
            machine_.ctx().stats().incr(metrics::kCatalyzerZygoteBuildAborts);
            break;
        }
    }
}

Zygote
ZygotePool::acquire(trace::TraceContext trace)
{
    if (!pool_.empty()) {
        Zygote z = std::move(pool_.back());
        pool_.pop_back();
        machine_.ctx().stats().incr(metrics::kCatalyzerZygoteHits);
        return z;
    }
    machine_.ctx().stats().incr(metrics::kCatalyzerZygoteMisses);
    return build(trace);
}

} // namespace catalyzer::core
