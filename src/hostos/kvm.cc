#include "hostos/kvm.h"

#include "sim/logging.h"
#include "sim/metric_catalog.h"

namespace catalyzer::hostos {

KvmVm::KvmVm(sim::SimContext &ctx, KvmConfig config)
    : ctx_(ctx), config_(config)
{
}

void
KvmVm::createVm()
{
    if (created_)
        sim::panic("KvmVm::createVm: already created");
    created_ = true;
    const auto &costs = ctx_.costs();
    ctx_.chargeCounted(metrics::kKvmCreateVm, costs.kvmCreateVm);
    const sim::SimTime alloc = config_.kvcallocCacheEnabled
                                   ? costs.kvmKvcallocCached
                                   : costs.kvmKvcalloc;
    for (int i = 0; i < costs.kvmKvcallocCalls; ++i)
        ctx_.chargeCounted(metrics::kKvmKvcalloc, alloc);
}

void
KvmVm::createVcpu()
{
    if (!created_)
        sim::panic("KvmVm::createVcpu before createVm");
    ++vcpus_;
    ctx_.chargeCounted(metrics::kKvmCreateVcpu, ctx_.costs().kvmCreateVcpu);
}

sim::SimTime
KvmVm::setUserMemoryRegion()
{
    if (!created_)
        sim::panic("KvmVm::setUserMemoryRegion before createVm");
    const auto &costs = ctx_.costs();
    sim::SimTime t = costs.kvmSetRegionBase;
    const sim::SimTime per_region = config_.pmlEnabled
                                        ? costs.kvmSetRegionPerRegionPml
                                        : costs.kvmSetRegionPerRegionNoPml;
    t += per_region * static_cast<std::int64_t>(regions_);
    if (config_.pmlEnabled) {
        t += costs.kvmPmlFlushPerVcpu *
             static_cast<std::int64_t>(std::max(vcpus_, 1));
    }
    ++regions_;
    ctx_.chargeCounted(metrics::kKvmSetMemoryRegion, t);
    return t;
}

void
KvmVm::setUserMemoryRegions(int n)
{
    for (int i = 0; i < n; ++i)
        setUserMemoryRegion();
}

} // namespace catalyzer::hostos
