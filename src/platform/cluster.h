/**
 * @file
 * Multi-machine serverless cluster.
 *
 * Catalyzer's warm boots, Base-EPT sharing, templates and page-cache
 * effects are all *per machine*; where the scheduler places a request
 * decides whether they help. The Cluster models a fleet of identical
 * machines with a pluggable placement policy, and (combined with
 * CatalyzerOptions::remoteImages) the per-machine func-image fetch that
 * the paper's init-less booting flow describes.
 */

#ifndef CATALYZER_PLATFORM_CLUSTER_H
#define CATALYZER_PLATFORM_CLUSTER_H

#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "net/fabric.h"
#include "platform/platform.h"
#include "remote/template_registry.h"
#include "state/state_region.h"

namespace catalyzer::platform {

/** How the cluster scheduler picks a machine for a request. */
enum class PlacementPolicy
{
    RoundRobin,       ///< spread blindly
    LeastLoaded,      ///< fewest live instances
    FunctionAffinity, ///< hash the function to a home machine
    /**
     * Boot-cost-aware: prefer a machine holding the function's template
     * (local sfork), spilling to a same-rack neighbor (remote-sfork at
     * ToR latency) once holders are clearly more loaded than the fleet,
     * and to the least-loaded machine overall as the last resort.
     */
    NetworkAware,
};

const char *placementPolicyName(PlacementPolicy policy);

/** A cluster invocation outcome: the record plus where it ran. */
struct ClusterInvocation
{
    InvocationRecord record;
    std::size_t machineIndex = 0;
};

/**
 * A fleet of machines, each with its own ServerlessPlatform (and
 * therefore its own Zygote pool, templates, base mappings and page
 * cache).
 */
class Cluster
{
  public:
    /**
     * @param machines      Fleet size.
     * @param policy        Placement policy.
     * @param config        Platform configuration used on every machine.
     * @param options       Catalyzer options used on every machine.
     * @param costs         Host cost model (same hardware fleet).
     * @param seed          Base seed; machine i uses seed + i.
     * @param fabric_config Network fabric between the machines. The
     *        default (flat-compat) keeps every latency bit-identical to
     *        the pre-fabric cluster; enabling modelTransfers /
     *        p2pImages / remoteFork turns on the distributed layer.
     */
    Cluster(std::size_t machines, PlacementPolicy policy,
            PlatformConfig config = {},
            core::CatalyzerOptions options = {},
            sim::CostModel costs = sim::CostModel{},
            std::uint64_t seed = 42,
            net::FabricConfig fabric_config = {});

    /** Register a function on every machine. */
    void deploy(const apps::AppProfile &app);

    /** Offline preparation on every machine (images/templates). */
    void prepareEverywhere(const apps::AppProfile &app);

    /**
     * Route one request through the scheduler: a "cluster-invoke" span
     * annotated with the chosen machine, wrapping the platform's
     * "invoke/<function>" span. With a disabled @p trace the request
     * self-traces into the chosen machine's always-on ring tracer
     * under a fresh distributed trace id, so fleet exports carry every
     * request without any caller opt-in.
     */
    ClusterInvocation invoke(const std::string &function_name,
                             trace::TraceContext trace = {});

    /**
     * Run the scheduler only: the machine invoke() would pick for this
     * request *now*, advancing stateful policies (the round-robin
     * cursor). Call once per request, then invokeOn() the result —
     * fleet drivers use the split to align the chosen machine's clock
     * with the arrival before serving it.
     */
    std::size_t route(const std::string &function_name);

    /**
     * route() against caller-projected per-machine instance counts
     * instead of live platform state. The parallel fleet driver routes
     * a whole epoch up front (epoch-start loads plus its own
     * routed-this-epoch increments) so placement cannot depend on
     * which worker thread ran first; stateful policies (the
     * round-robin cursor) still advance, so interleaving
     * routeProjected() with route() keeps one deterministic cursor
     * stream.
     */
    std::size_t routeProjected(const std::string &function_name,
                               const std::vector<std::size_t> &loads);

    /**
     * Route one workflow stage: like route(), but NetworkAware also
     * weighs @p region_affinity_bytes — per-machine bytes of state
     * regions the stage would otherwise have to stream over (plus the
     * dependency-machine nudge the workflow engine folds in). Among
     * machines within the load slack of the least-loaded, the largest
     * affinity wins; with no affinity anywhere the behavior is exactly
     * route()'s. Other policies ignore the affinity (locality-blind).
     */
    std::size_t
    routeStage(const std::string &function_name,
               const std::vector<std::size_t> &region_affinity_bytes);

    /** Live totalInstances() of each machine, indexed by machine. */
    std::vector<std::size_t> instanceLoads() const;

    /**
     * True when machines cannot interact mid-request: no remote-sfork
     * lending and no P2P image streaming, so each machine's timeline
     * depends only on its own request queue and the fleet may be
     * served by parallel worker threads. Coupled fleets (remoteFork /
     * p2pImages) must replay machine-by-machine in index order.
     */
    bool shareNothing() const;

    /**
     * Declare each machine's *current* virtual time the origin of its
     * windowed series (dropping any pre-origin samples): fleet drivers
     * call this at measurement start so that win.* windows line up
     * run-relative across machines whose clocks diverged during
     * priming. See WindowedHistogram::setOrigin.
     */
    void alignWindowOrigins();

    /** The invoke() tail on an already-routed machine. */
    ClusterInvocation invokeOn(std::size_t machine_index,
                               const std::string &function_name,
                               trace::TraceContext trace = {});

    std::size_t machineCount() const { return nodes_.size(); }
    ServerlessPlatform &platform(std::size_t i);
    sandbox::Machine &machine(std::size_t i);

    /** The fleet's network. */
    net::Fabric &fabric() { return fabric_; }

    /** The fleet's template / replica directory. */
    remote::TemplateRegistry &registry() { return registry_; }

    /**
     * The fleet's shared state-region store, created on first use with
     * every machine registered (strictly pay-for-use: a cluster that
     * never calls this carries no store and emits no state counters).
     */
    state::StateRegionStore &stateRegions();

    /**
     * Bytes of state-region replicas resident on machine @p i; zero
     * when the store was never created. The autoscaler folds this into
     * its memory-pressure budget.
     */
    std::size_t stateResidentBytes(std::size_t i) const;

    /**
     * Fleet-wide metrics snapshot as JSON: every machine's counters
     * summed and histogram samples concatenated, plus the machine
     * count: {"machines": N, "fleet": {counters..., histograms...}}.
     */
    void statsSnapshot(std::ostream &os) const;

    /**
     * Fold every machine's registry into @p out: counters summed,
     * histogram samples concatenated, windowed series merged per
     * window (machine order, so the result is deterministic).
     * Serialized against concurrent aggregation calls; callers must
     * still quiesce worker threads first (aggregating mid-epoch would
     * read half-written machine registries).
     */
    void mergeStats(sim::StatRegistry &out) const;

    /**
     * One merged Chrome trace for the whole fleet: every machine's
     * ring tracer, pid = machine lane, tid = distributed trace id. A
     * remote-sfork boot renders as one timeline — the borrower's boot
     * tree in its machine lane and the lender's lend-template /
     * serve-pull-batch spans in its own, joined by the trace id.
     */
    void exportFleetTrace(std::ostream &os) const;

    /** Fleet-merged windowed time-series JSON (see
     *  StatRegistry::writeTimeSeriesJson). */
    void writeTimeSeriesJson(std::ostream &os) const;

  private:
    /**
     * The one placement decision behind route(), routeProjected(),
     * routeStage() and invoke(): @p loads are per-machine instance
     * counts, @p affinity_bytes per-machine state-region bytes (only
     * NetworkAware reads them).
     */
    std::size_t pick(const std::string &function_name,
                     const std::vector<std::size_t> &loads,
                     const std::vector<std::size_t> &affinity_bytes = {});

    struct Node
    {
        std::unique_ptr<sandbox::Machine> machine;
        std::unique_ptr<ServerlessPlatform> platform;
    };

    PlacementPolicy policy_;
    /** Declared before nodes_: platforms hold pointers into both. */
    net::Fabric fabric_;
    remote::TemplateRegistry registry_;
    /** Content-addressed image fetch is on (couples the fleet). */
    bool chunked_images_ = false;
    std::vector<Node> nodes_;
    /**
     * Lazily created by stateRegions(); null on stateless clusters.
     * Declared after nodes_: replica backing files reference the
     * machines' frame stores, so the store must be destroyed first.
     */
    std::unique_ptr<state::StateRegionStore> state_;
    std::size_t next_rr_ = 0;
    /** Serializes mergeStats/exportFleetTrace against each other. */
    mutable std::mutex aggregation_mu_;
};

} // namespace catalyzer::platform

#endif // CATALYZER_PLATFORM_CLUSTER_H
