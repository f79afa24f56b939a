/**
 * @file
 * Virtualization sandbox Zygote (paper Sec. 3.4).
 *
 * A Zygote is a generalized, function-independent sandbox: base config
 * parsed, sandbox process spawned, KVM resources allocated (with
 * Catalyzer's host tuning: PML off, kvcalloc cache on), Sentry
 * initialized, base rootfs mounted, Go runtime running. Specializing it
 * for a function only appends the function config and imports its
 * binaries, taking the whole sandbox construction off the critical path.
 */

#ifndef CATALYZER_CATALYZER_ZYGOTE_H
#define CATALYZER_CATALYZER_ZYGOTE_H

#include <memory>
#include <vector>

#include "faults/fault_injector.h"
#include "guest/guest_kernel.h"
#include "hostos/kvm.h"
#include "hostos/process.h"
#include "sandbox/machine.h"
#include "sim/metric_catalog.h"
#include "trace/trace.h"

namespace catalyzer::core {

/** One pre-built generalized sandbox. */
struct Zygote
{
    hostos::HostProcess *proc = nullptr;
    std::unique_ptr<guest::GuestKernel> guest;
};

/**
 * Cache of pre-built Zygotes for one machine. prewarm() runs offline;
 * acquire() hands a sandbox to a boot with nothing left to construct.
 * On a cache miss the Zygote is built on the critical path (still fast,
 * thanks to the Catalyzer KVM configuration).
 */
class ZygotePool
{
  public:
    explicit ZygotePool(sandbox::Machine &machine);

    /** Catalyzer's host configuration: PML off, kvcalloc cache on. */
    static hostos::KvmConfig kvmConfig();

    /** Build @p n Zygotes into the cache (offline) and raise the
     *  replenish target to at least @p n. */
    void prewarm(std::size_t n);

    /**
     * Take a Zygote (cached if available, else built now). A cache miss
     * puts the build on the critical path; with an enabled @p trace the
     * miss shows up as a "zygote-build" child span. Under fault
     * injection a miss-path build retries per the injector's policy and
     * throws faults::FaultError once the budget is exhausted (the warm
     * tier then degrades to cold).
     */
    Zygote acquire(trace::TraceContext trace = {});

    /**
     * Background maintenance: rebuild the cache up to the target size.
     * The platform calls this after a request completes, modelling the
     * offline zygote builder that keeps the pool full.
     */
    void replenish();

    std::size_t target() const { return target_; }

    /** Make builds consult @p injector; nullptr disables injection. */
    void setFaultInjector(faults::FaultInjector *injector)
    {
        injector_ = injector;
    }

    std::size_t cached() const { return pool_.size(); }
    std::size_t built() const { return built_; }

    /** Cache misses. The StatRegistry counter catalyzer.zygote_misses is
     *  the single source of truth, so this resets with the registry. */
    std::size_t misses() const
    {
        return static_cast<std::size_t>(
            machine_.ctx().stats().value(metrics::kCatalyzerZygoteMisses));
    }

  private:
    Zygote build(trace::TraceContext trace = {});

    sandbox::Machine &machine_;
    faults::FaultInjector *injector_ = nullptr;
    std::vector<Zygote> pool_;
    std::size_t target_ = 0;
    std::size_t built_ = 0;
};

} // namespace catalyzer::core

#endif // CATALYZER_CATALYZER_ZYGOTE_H
