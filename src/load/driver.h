/**
 * @file
 * Fleet replay driver: runs a merged arrival stream against a Cluster
 * on the virtual clock, with the autoscaler in the loop, and scores
 * the run (latency series, per-tenant windows, policy counters, cost).
 *
 * Replay is open-loop on the virtual clock: the scheduler routes each
 * arrival first, then the *chosen machine's* clock idles forward to the
 * arrival time if it is behind it (back-to-back service when it leads),
 * and every machine advances through policy-tick barriers so windowed
 * series and autoscaling decisions line up across the fleet. Idle
 * instances expire on the routed machine at every arrival as well as
 * on the tick, so keep-alive economics do not depend on the tick
 * cadence. A one-machine Cluster is the single-platform case: the
 * paper-figure ablations replay through this driver too.
 */

#ifndef CATALYZER_LOAD_DRIVER_H
#define CATALYZER_LOAD_DRIVER_H

#include <iosfwd>
#include <map>
#include <string>

#include "load/fleet_policy.h"
#include "load/traffic.h"
#include "sim/stats.h"
#include "workflow/workflow.h"

namespace catalyzer::load {

/** One fleet run's configuration. */
struct FleetRunConfig
{
    FleetPolicyConfig policy;
    /**
     * Before the measured window, run one throwaway invocation of every
     * function on every machine and then drop all instances. First
     * contact with a function otherwise pays one-time initialization on
     * the request path — checkpointing the separated image, priming the
     * shared base — which a long-running fleet did days ago; unprimed,
     * that tax (~100 ms x functions x machines) swamps every scenario
     * with synthetic overload. Instances are expired afterwards so both
     * policy arms still start from zero warm capacity.
     */
    bool primeImages = true;
    /**
     * Worker threads serving per-machine arrival lists between policy
     * ticks; 0 reads the CATALYZER_SIM_THREADS environment knob
     * (default 1). Thread count never changes the report: routing and
     * accounting stay in stream order, and only share-nothing fleets
     * (Cluster::shareNothing) actually fan out — fleets coupled by
     * remote-sfork or P2P images replay sequentially regardless.
     */
    int simThreads = 0;
    /**
     * DAG workflows the tape's workflow arrivals cycle through (see
     * TrafficSpec::workflowRps); empty fleets never consult this.
     * Workflow stage functions must be deployed on the cluster by the
     * caller (they are not part of the Population). A tape with
     * workflow arrivals replays sequentially even on a share-nothing
     * fleet: stages hop machines and move state regions mid-request.
     */
    std::vector<workflow::WorkflowSpec> workflows;
    /** Placement hint for workflow stages (WorkflowOptions). */
    bool workflowLocalityAware = true;
};

/** Aggregated results of one fleet run. */
struct FleetReport
{
    std::size_t requests = 0;
    std::size_t boots = 0;
    std::size_t reuses = 0;
    std::size_t expired = 0; ///< keep-alive reclaims (arrival + tick)
    /**
     * Arrival-to-completion latency: queue wait (the routed machine's
     * clock leading the arrival — it was still serving earlier work)
     * plus service (gateway + boot + exec). This is the latency a
     * caller sees, and the series the SLO engine scores; a flash crowd
     * hurts mostly through the queueing term.
     */
    sim::LatencySeries endToEnd;
    /** The queueing component of endToEnd, separately. */
    sim::LatencySeries queueWait;
    sim::LatencySeries boot;
    /** Fleet-wide windowed latency (ms) on run-relative virtual time —
     *  what the SLO engine evaluates. Boot windows exclude reuse hits. */
    sim::WindowedHistogram e2eMsWindows;
    sim::WindowedHistogram bootMsWindows;
    /** Requests per serving tier ("sfork", "warm", "reused", ...). */
    std::map<std::string, std::size_t> tierCounts;
    /** Per-tenant windowed end-to-end latency (ms), fleet-merged. */
    std::map<std::string, sim::WindowedHistogram> tenantE2eMs;
    /** Per-tenant request counts. */
    std::map<std::string, std::size_t> tenantRequests;

    FleetPolicyCounters policy;

    //
    // Stateful-workflow side stream (zero / empty without workflow
    // arrivals; the JSON dump omits the block entirely then, keeping
    // function-only dumps byte-identical to the pre-workflow engine).
    //
    std::size_t workflowRuns = 0;
    std::size_t chainHopsLocal = 0;
    std::size_t chainHopsRemote = 0;
    std::size_t chainTransferBytes = 0;
    /** Workflow end-to-end (critical path) latency. */
    sim::LatencySeries chainE2e;

    //
    // Cost. Machine-seconds count each machine's virtual clock advance
    // over the run; busy-seconds are the part spent serving (boot +
    // exec + gateway). Resident memory is sampled at every policy tick.
    //
    double machineSeconds = 0.0;
    double busySeconds = 0.0;
    double avgResidentMiB = 0.0;
    double peakResidentMiB = 0.0;
    /** Time integral of resident memory (MiB * s): the rent paid. */
    double residentMiBSeconds = 0.0;

    /**
     * Full-fidelity JSON dump: every counter, every raw sample
     * (round-trip precision), every window, every tenant. Two runs of
     * the same tape must produce byte-identical dumps regardless of
     * simThreads — the determinism tests compare exactly this.
     */
    void writeJson(std::ostream &os) const;
};

/** Replays fleet streams against a Cluster. */
class FleetDriver
{
  public:
    FleetDriver(platform::Cluster &cluster, const Population &population)
        : cluster_(cluster), population_(population)
    {}

    /** Generate @p traffic's tape and run it under @p config. */
    FleetReport run(const TrafficSpec &traffic,
                    const FleetRunConfig &config);

    /**
     * Replay an explicit arrival @p stream (a recorded trace, say) over
     * [0, @p duration_sec) under @p config. A stream out of time order
     * is sorted first, ties keeping their order; an arrival outside the
     * window or naming no function of the population is fatal.
     */
    FleetReport run(const std::vector<FleetArrival> &stream,
                    double duration_sec, const FleetRunConfig &config);

  private:
    platform::Cluster &cluster_;
    const Population &population_;
};

} // namespace catalyzer::load

#endif // CATALYZER_LOAD_DRIVER_H
