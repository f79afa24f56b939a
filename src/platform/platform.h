/**
 * @file
 * The serverless platform: gateway, boot-strategy dispatch and instance
 * pools (paper Sec. 2.1's gateway + sandbox flow).
 */

#ifndef CATALYZER_PLATFORM_PLATFORM_H
#define CATALYZER_PLATFORM_PLATFORM_H

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "catalyzer/runtime.h"
#include "obs/flight_recorder.h"
#include "remote/template_registry.h"
#include "sandbox/pipelines.h"

namespace catalyzer::platform {

/**
 * How the platform boots a missing instance. The numbering starts at 3
 * and must not shift: gtest names the parametrized platform tests by
 * the raw value.
 */
enum class BootStrategy
{
    GVisor = 3,
    GVisorRestore,
    CatalyzerCold,
    CatalyzerWarm,
    CatalyzerFork,
    /** fork if a template exists, warm if a base exists, else cold. */
    CatalyzerAuto,
};

const char *bootStrategyName(BootStrategy strategy);

/** Platform behaviour knobs. */
struct PlatformConfig
{
    BootStrategy strategy = BootStrategy::CatalyzerAuto;
    /** Keep-alive: reuse an idle instance instead of booting. */
    bool reuseIdleInstances = false;
    /** Keep instances running after a request (auto-scaling study). */
    bool retainInstances = true;
};

/** Outcome of one request through the gateway. */
struct InvocationRecord
{
    bool reusedInstance = false;
    /**
     * Boot tier that actually served the request after any fault-driven
     * degradation: "sfork", "warm", "cold" or "fresh" for the Catalyzer
     * strategies, the strategy name for the fresh-boot baselines, and
     * "reused" for keep-alive hits.
     */
    std::string tierServed;
    /** Fault-driven tier degradations this boot went through. */
    int tierFallbacks = 0;
    sim::SimTime gatewayLatency;
    sim::SimTime bootLatency;
    sim::SimTime execLatency;

    sim::SimTime
    endToEnd() const
    {
        return gatewayLatency + bootLatency + execLatency;
    }
};

/**
 * One serverless platform on one machine. Owns the function registry,
 * the Catalyzer runtime, and the per-function instance pools.
 */
class ServerlessPlatform
{
  public:
    explicit ServerlessPlatform(sandbox::Machine &machine,
                                PlatformConfig config = {},
                                core::CatalyzerOptions options = {});

    /** Register a function (idempotent). */
    sandbox::FunctionArtifacts &deploy(const apps::AppProfile &app);

    /**
     * Offline preparation appropriate for the configured strategy:
     * build func-images and/or the template sandbox.
     */
    void prepare(const apps::AppProfile &app);

    /**
     * Handle one request end to end: an "invoke/<function>" span with
     * "gateway", the boot span tree and "execute" as children, and the
     * end-to-end latency observed into the "invoke.latency" histogram.
     * With a disabled @p trace the request self-traces into the
     * machine's always-on ring tracer under a fresh distributed trace
     * id (that is what the flight recorder replays after an incident);
     * an enabled @p trace is used as-is, inheriting or allocating its
     * trace id. Boot and end-to-end latencies are also recorded into
     * the windowed time series (win.boot_ms.*, win.e2e_ms).
     */
    InvocationRecord invoke(const std::string &function_name,
                            trace::TraceContext trace = {});

    /** Live instances of one function (running + idle). */
    std::vector<sandbox::SandboxInstance *>
    instancesOf(const std::string &function_name);

    std::size_t runningCount(const std::string &function_name) const;
    /** Live instances across all functions (running + idle), O(1). */
    std::size_t totalInstances() const { return instances_; }

    /** Destroy all instances of a function. */
    void teardown(const std::string &function_name);

    /**
     * Keep-alive expiry: destroy idle instances parked for longer than
     * @p ttl. Returns the number of instances reclaimed.
     */
    std::size_t expireIdle(sim::SimTime ttl);

    /** Idle (keep-alive) instances across all functions. */
    std::size_t idleCount() const;

    /**
     * Resident memory attributable to serving: every live instance
     * (running and idle keep-alive) plus all template sandboxes. The
     * figure memory-pressure autoscaling budgets against.
     */
    std::size_t residentBytes() const;

    core::CatalyzerRuntime &catalyzer() { return runtime_; }
    sandbox::FunctionRegistry &registry() { return registry_; }
    sandbox::Machine &machine() { return machine_; }
    const PlatformConfig &config() const { return config_; }

    /**
     * This machine's black-box flight recorder. Always armed: every
     * injected fault and every tier fallback captures an incident
     * (trigger site, trace id, counter deltas, recent span-ring tail).
     * Dumping to disk needs a directory — setDumpDirectory() or the
     * CATALYZER_FLIGHT_DIR environment variable.
     */
    obs::FlightRecorder &flightRecorder() { return recorder_; }
    const obs::FlightRecorder &flightRecorder() const
    {
        return recorder_;
    }

    /**
     * Join a cluster's remote-fork control plane: the fabric, the
     * cluster-wide template registry and this machine's node id. With
     * an env set, CatalyzerAuto inserts the remote-sfork tier between
     * sfork and warm whenever a peer holds the function's template, and
     * every boot publishes this machine's template state back into the
     * registry. Without one the chain is exactly the local four tiers.
     */
    void setRemoteEnv(remote::RemoteBootEnv env);

    const remote::RemoteBootEnv *remoteEnv() const
    {
        return remote_env_ ? &*remote_env_ : nullptr;
    }

  private:
    /** Boot per the configured strategy; sets @p tier to the tier
     *  that served the boot. */
    sandbox::BootResult bootNew(sandbox::FunctionArtifacts &fn,
                                InvocationRecord &record, int &tier,
                                trace::TraceContext trace);
    /**
     * Boot through the Catalyzer fallback chain starting at @p tier
     * (sfork → remote-sfork → warm → cold → fresh), leaving @p tier at
     * the tier that served: a tier that throws faults::FaultError
     * degrades one tier instead of failing the request, counting
     * boot.fallback.<from>_<to> and observing the serving tier into
     * the boot.tier_served histogram. The remote-sfork tier is skipped
     * (and absent from fallback counter names) unless a remote env
     * with a template-holding peer exists.
     */
    sandbox::BootResult bootChain(sandbox::FunctionArtifacts &fn,
                                  int &tier, InvocationRecord &record,
                                  trace::TraceContext trace);
    /** A peer holds this function's template and can lend it. */
    bool remoteForkAvailable(sandbox::FunctionArtifacts &fn) const;
    /** Publish this machine's template state for @p fn cluster-wide. */
    void syncRemoteRegistry(sandbox::FunctionArtifacts &fn);

    /** A parked keep-alive instance. */
    struct IdleEntry
    {
        std::unique_ptr<sandbox::SandboxInstance> instance;
        sim::SimTime parkedAt;
    };

    sandbox::Machine &machine_;
    PlatformConfig config_;
    sandbox::FunctionRegistry registry_;
    core::CatalyzerRuntime runtime_;
    obs::FlightRecorder recorder_;
    /** Trace id of the request currently in invoke() (0 outside). */
    trace::TraceId current_trace_ = 0;
    /** Parked instances per function; a pool that empties is erased. */
    std::map<std::string, std::deque<IdleEntry>> idle_;
    std::map<std::string,
             std::vector<std::unique_ptr<sandbox::SandboxInstance>>>
        running_;
    /**
     * Instances in running_ and idle_, kept current by every site that
     * adds or removes one: cluster routing reads it per request.
     */
    std::size_t instances_ = 0;
    std::optional<remote::RemoteBootEnv> remote_env_;
};

} // namespace catalyzer::platform

#endif // CATALYZER_PLATFORM_PLATFORM_H
