#include "platform/platform.h"

#include <array>
#include <cstdlib>
#include <iterator>

#include "faults/fault_injector.h"
#include "sim/clock.h"
#include "sim/logging.h"
#include "sim/metric_catalog.h"

namespace catalyzer::platform {

using sandbox::BootResult;
using sandbox::FunctionArtifacts;
using sandbox::SandboxInstance;

namespace {

/**
 * The tiers a request can be served by: the Catalyzer fallback chain,
 * fastest first, then a keep-alive hit and the two fresh-boot
 * baselines, which serve under their strategy's name.
 */
enum BootTier
{
    kTierSfork = 0,
    kTierRemoteFork, ///< sfork from a peer machine's template
    kTierWarm,
    kTierCold,
    kTierFresh,
    kTierReused,
    kTierGVisor,
    kTierGVisorRestore,
    kTierCount,
};

const char *
bootTierName(int tier)
{
    switch (tier) {
      case kTierSfork: return "sfork";
      case kTierRemoteFork: return "remote-sfork";
      case kTierWarm: return "warm";
      case kTierCold: return "cold";
      case kTierFresh: return "fresh";
      case kTierReused: return "reused";
      case kTierGVisor: return bootStrategyName(BootStrategy::GVisor);
      case kTierGVisorRestore:
        return bootStrategyName(BootStrategy::GVisorRestore);
    }
    sim::panic("bootTierName: bad tier %d", tier);
}

/** win.boot_ms.tier.<tier>, resolved once per tier. */
sim::WindowedHandle
tierWindow(int tier)
{
    static const auto windows = [] {
        std::array<sim::WindowedHandle, kTierCount> out{};
        for (int t = 0; t < kTierCount; ++t)
            out[t] = metrics::kWinBootMsTier.member(bootTierName(t));
        return out;
    }();
    return windows[tier];
}

/**
 * Value observed into the boot.tier_served histogram. The local tiers
 * keep their pre-remote-fork encoding (sfork 0, warm 1, cold 2,
 * fresh 3) so single-machine runs stay bit-identical; the inserted
 * remote-sfork tier takes the next free slot.
 */
double
tierServedValue(int tier)
{
    switch (tier) {
      case kTierSfork: return 0.0;
      case kTierRemoteFork: return 4.0;
      case kTierWarm: return 1.0;
      case kTierCold: return 2.0;
    }
    return 3.0;
}

} // namespace

const char *
bootStrategyName(BootStrategy strategy)
{
    switch (strategy) {
      case BootStrategy::GVisor: return "gVisor";
      case BootStrategy::GVisorRestore: return "gVisor-restore";
      case BootStrategy::CatalyzerCold: return "Catalyzer-restore";
      case BootStrategy::CatalyzerWarm: return "Catalyzer-Zygote";
      case BootStrategy::CatalyzerFork: return "Catalyzer-sfork";
      case BootStrategy::CatalyzerAuto: return "Catalyzer-auto";
    }
    return "?";
}

ServerlessPlatform::ServerlessPlatform(sandbox::Machine &machine,
                                       PlatformConfig config,
                                       core::CatalyzerOptions options)
    : machine_(machine), config_(config), registry_(machine),
      runtime_(machine, options),
      recorder_(machine.nodeId(), machine.tracer(),
                machine.ctx().clock(), machine.ctx().stats())
{
    // Black-box capture at the moment a fault fires — recoveries
    // included, which a tier-fallback hook alone would miss. Strictly
    // pay-for-use: a disabled injector never calls the sink.
    runtime_.faults().setOnInject([this](faults::FaultSite site) {
        recorder_.record("fault-injected", faults::faultSiteName(site),
                         "", current_trace_);
    });
    if (const char *dir = std::getenv("CATALYZER_FLIGHT_DIR"))
        recorder_.setDumpDirectory(dir);
}

FunctionArtifacts &
ServerlessPlatform::deploy(const apps::AppProfile &app)
{
    return registry_.artifactsFor(app);
}

void
ServerlessPlatform::prepare(const apps::AppProfile &app)
{
    FunctionArtifacts &fn = deploy(app);
    switch (config_.strategy) {
      case BootStrategy::GVisorRestore:
        sandbox::ensureProtoImage(fn);
        break;
      case BootStrategy::CatalyzerCold:
      case BootStrategy::CatalyzerWarm:
        sandbox::ensureSeparatedImage(fn);
        break;
      case BootStrategy::CatalyzerFork:
      case BootStrategy::CatalyzerAuto:
        try {
            runtime_.prepareTemplate(fn);
        } catch (const faults::FaultError &err) {
            // Offline preparation hit a persistent fault; serve
            // degraded (warm/cold) until a later fork boot rebuilds
            // the template.
            machine_.ctx().stats().incr(metrics::kPlatformPrepareFailures);
            sim::warn("prepare(%s) failed: %s", app.name.c_str(),
                      err.what());
        }
        break;
      default:
        break; // fresh-boot systems need no preparation
    }
    syncRemoteRegistry(fn);
}

bool
ServerlessPlatform::remoteForkAvailable(FunctionArtifacts &fn) const
{
    return remote_env_ && remote_env_->registry &&
           remote_env_->registry
               ->nearestTemplateHolder(fn.app().name, remote_env_->self)
               .has_value();
}

void
ServerlessPlatform::syncRemoteRegistry(FunctionArtifacts &fn)
{
    if (!remote_env_ || !remote_env_->registry)
        return;
    remote_env_->registry->setTemplate(remote_env_->self, fn.app().name,
                                       fn.templateSandbox != nullptr);
}

void
ServerlessPlatform::setRemoteEnv(remote::RemoteBootEnv env)
{
    remote_env_ = std::move(env);
}

BootResult
ServerlessPlatform::bootChain(FunctionArtifacts &fn, int &tier,
                              InvocationRecord &record,
                              trace::TraceContext trace)
{
    auto &stats = machine_.ctx().stats();
    for (;;) {
        // The remote tier only exists when a peer can actually lend the
        // template; otherwise the chain (and its fallback counter
        // names) is exactly the local sfork → warm → cold → fresh.
        while (tier == kTierRemoteFork && !remoteForkAvailable(fn))
            ++tier;
        try {
            BootResult result;
            switch (tier) {
              case kTierSfork:
                result = runtime_.bootFork(fn, trace);
                break;
              case kTierRemoteFork: {
                const remote::RemoteBootEnv &env = *remote_env_;
                const std::string &name = fn.app().name;
                auto peer = env.registry->nearestTemplateHolder(
                    name, env.self);
                if (!peer)
                    throw faults::FaultError(
                        faults::FaultSite::RemotePeerDeath,
                        name + " has no remote template holder");
                auto src = env.forkSource(name, *peer);
                if (!src)
                    throw faults::FaultError(
                        faults::FaultSite::RemotePeerDeath,
                        name + " fork source on node " +
                            std::to_string(*peer) + " is gone");
                src->self = env.self;
                result = runtime_.bootRemoteFork(fn, *src, trace);
                break;
              }
              case kTierWarm:
                result = runtime_.bootWarm(fn, trace);
                break;
              case kTierCold:
                result = runtime_.bootCold(fn, trace);
                break;
              default:
                // Last resort: boot the sandbox from scratch. No fault
                // site can fail it, so the chain always terminates.
                result = sandbox::bootSandbox(
                    sandbox::SandboxSystem::GVisor, fn, trace);
                break;
            }
            stats.observeMs(metrics::kBootTierServed, tierServedValue(tier));
            stats.observeWindowed(metrics::kWinTierServed,
                                  machine_.ctx().now(),
                                  tierServedValue(tier));
            return result;
        } catch (const faults::FaultError &err) {
            // Degrade one tier instead of failing the request.
            int next = tier + 1;
            while (next == kTierRemoteFork && !remoteForkAvailable(fn))
                ++next;
            const std::string from = bootTierName(tier);
            const std::string to = bootTierName(next);
            stats.incr(metrics::kBootFallback.member(from + "_" + to));
            recorder_.record("tier-fallback",
                             faults::faultSiteName(err.site()),
                             from + " -> " + to + ": " + err.what(),
                             trace.traceId());
            ++record.tierFallbacks;
            sim::debugLog("boot tier %s failed for %s (%s): "
                          "falling back to %s",
                          from.c_str(), fn.app().name.c_str(),
                          err.what(), to.c_str());
            tier = next;
        }
    }
}

BootResult
ServerlessPlatform::bootNew(FunctionArtifacts &fn,
                            InvocationRecord &record, int &tier,
                            trace::TraceContext trace)
{
    using sandbox::SandboxSystem;
    switch (config_.strategy) {
      case BootStrategy::GVisor:
        tier = kTierGVisor;
        return sandbox::bootSandbox(SandboxSystem::GVisor, fn, trace);
      case BootStrategy::GVisorRestore:
        tier = kTierGVisorRestore;
        return sandbox::bootSandbox(SandboxSystem::GVisorRestore, fn,
                                    trace);
      case BootStrategy::CatalyzerCold:
        tier = kTierCold;
        break;
      case BootStrategy::CatalyzerWarm:
        tier = kTierWarm;
        break;
      case BootStrategy::CatalyzerFork:
        tier = kTierSfork;
        break;
      case BootStrategy::CatalyzerAuto:
        if (fn.templateSandbox)
            tier = kTierSfork;
        else if (remoteForkAvailable(fn))
            tier = kTierRemoteFork;
        else
            tier = fn.sharedBase ? kTierWarm : kTierCold;
        break;
    }
    return bootChain(fn, tier, record, trace);
}

InvocationRecord
ServerlessPlatform::invoke(const std::string &function_name,
                           trace::TraceContext trace)
{
    auto &ctx = machine_.ctx();
    // Deployed functions resolve through the registry, which also
    // serves synthetic fleet functions that have no catalog entry; the
    // catalog lookup remains for legacy callers invoking an app that
    // was never deploy()ed.
    FunctionArtifacts *found = registry_.find(function_name);
    FunctionArtifacts &fn =
        found ? *found
              : registry_.artifactsFor(apps::appByName(function_name));

    // Always-on: an untraced request self-traces into the machine's
    // bounded ring tracer, so a later incident has the spans that led
    // up to it. Full-history callers pass their own tracer as before.
    if (!trace.enabled())
        trace = trace::TraceContext(machine_.tracer(), ctx.clock());

    trace::ScopedSpan invoke_span(trace, fn.invokeSpan);
    invoke_span.attr("strategy", bootStrategyName(config_.strategy));
    const trace::TraceContext tctx = invoke_span.context();
    current_trace_ = tctx.traceId();

    InvocationRecord record;

    // Gateway delivery.
    sim::Stopwatch watch(ctx.clock());
    ctx.charge(ctx.costs().rpcDelivery);
    record.gatewayLatency = watch.elapsed();
    tctx.completedSpan("gateway", record.gatewayLatency);
    watch.restart();

    // Find or boot an instance.
    std::unique_ptr<SandboxInstance> inst;
    int tier = kTierReused;
    auto idle = config_.reuseIdleInstances ? idle_.find(function_name)
                                           : idle_.end();
    if (idle != idle_.end()) {
        // Most-recently-used instance: the warmest caches, and older
        // ones age toward the keep-alive TTL.
        inst = std::move(idle->second.back().instance);
        idle->second.pop_back();
        if (idle->second.empty())
            idle_.erase(idle);
        --instances_;
        record.reusedInstance = true;
        invoke_span.attr("reused", "true");
        ctx.stats().incr(metrics::kPlatformInstanceReuses);
    } else {
        BootResult boot = bootNew(fn, record, tier, tctx);
        inst = std::move(boot.instance);
        record.bootLatency = inst->bootLatency();
        ctx.stats().incr(metrics::kPlatformBoots);
        // The boot may have built (or dropped) the local template;
        // publish its state so peers can remote-sfork from it. A no-op
        // outside a cluster with remote fork enabled.
        syncRemoteRegistry(fn);
    }
    record.tierServed = bootTierName(tier);
    invoke_span.attr("tier", record.tierServed);

    // Execute the handler.
    {
        trace::ScopedSpan exec_span(tctx, "execute");
        record.execLatency = inst->invoke();
    }

    // Park the instance.
    if (config_.reuseIdleInstances) {
        idle_[function_name].push_back(
            IdleEntry{std::move(inst), ctx.now()});
        ++instances_;
    } else if (config_.retainInstances) {
        running_[function_name].push_back(std::move(inst));
        ++instances_;
    }
    // else: destroyed here, releasing its memory.

    ctx.stats().incr(metrics::kPlatformInvocations);
    ctx.stats().observe(metrics::kInvokeLatency, record.endToEnd());
    // Windowed time series: what the SLO engine evaluates. Boot latency
    // per serving tier and per function, plus end-to-end latency, keyed
    // to the window containing this request's completion time.
    {
        const sim::SimTime now = ctx.now();
        auto &stats = ctx.stats();
        stats.observeWindowed(tierWindow(tier), now,
                              record.bootLatency.toMs());
        stats.observeWindowed(fn.bootWindow, now,
                              record.bootLatency.toMs());
        stats.observeWindowed(metrics::kWinE2eMs, now,
                              record.endToEnd().toMs());
    }
    current_trace_ = 0;
    // Background maintenance after the request is served: the offline
    // zygote builder keeps the pool at its target size.
    runtime_.zygotes().replenish();
    return record;
}

std::vector<SandboxInstance *>
ServerlessPlatform::instancesOf(const std::string &function_name)
{
    std::vector<SandboxInstance *> out;
    auto rit = running_.find(function_name);
    if (rit != running_.end()) {
        for (auto &inst : rit->second)
            out.push_back(inst.get());
    }
    auto iit = idle_.find(function_name);
    if (iit != idle_.end()) {
        for (auto &entry : iit->second)
            out.push_back(entry.instance.get());
    }
    return out;
}

std::size_t
ServerlessPlatform::runningCount(const std::string &function_name) const
{
    std::size_t n = 0;
    auto rit = running_.find(function_name);
    if (rit != running_.end())
        n += rit->second.size();
    auto iit = idle_.find(function_name);
    if (iit != idle_.end())
        n += iit->second.size();
    return n;
}

std::size_t
ServerlessPlatform::expireIdle(sim::SimTime ttl)
{
    const sim::SimTime now = machine_.ctx().now();
    std::size_t reclaimed = 0;
    for (auto it = idle_.begin(); it != idle_.end();) {
        auto &entries = it->second;
        while (!entries.empty() &&
               now - entries.front().parkedAt > ttl) {
            entries.pop_front();
            ++reclaimed;
        }
        it = entries.empty() ? idle_.erase(it) : std::next(it);
    }
    instances_ -= reclaimed;
    if (reclaimed > 0)
        machine_.ctx().stats().incr(metrics::kPlatformIdleExpired,
                                    static_cast<std::int64_t>(reclaimed));
    return reclaimed;
}

std::size_t
ServerlessPlatform::idleCount() const
{
    std::size_t n = 0;
    for (const auto &[name, entries] : idle_)
        n += entries.size();
    return n;
}

std::size_t
ServerlessPlatform::residentBytes() const
{
    std::size_t bytes = 0;
    for (const auto &[name, list] : running_) {
        for (const auto &inst : list)
            bytes += inst->rssBytes();
    }
    for (const auto &[name, entries] : idle_) {
        for (const auto &entry : entries)
            bytes += entry.instance->rssBytes();
    }
    bytes += registry_.templateBytes() + runtime_.languageTemplateBytes();
    // Cached func-images (chunk tiers + locally cached image files)
    // compete with templates for machine memory; zero unless the
    // remote-image store is in use.
    bytes += runtime_.images().residentBytes();
    return bytes;
}

void
ServerlessPlatform::teardown(const std::string &function_name)
{
    instances_ -= runningCount(function_name);
    running_.erase(function_name);
    idle_.erase(function_name);
}

} // namespace catalyzer::platform
