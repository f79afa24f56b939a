#include "platform/cluster.h"

#include <functional>
#include <mutex>
#include <ostream>

#include "obs/fleet_trace.h"
#include "sim/logging.h"

namespace catalyzer::platform {

namespace {

/** The least-loaded machine, lowest index on ties. */
std::size_t
leastLoaded(const std::vector<std::size_t> &loads)
{
    std::size_t best = 0;
    for (std::size_t i = 1; i < loads.size(); ++i) {
        if (loads[i] < loads[best])
            best = i;
    }
    return best;
}

} // namespace

const char *
placementPolicyName(PlacementPolicy policy)
{
    switch (policy) {
      case PlacementPolicy::RoundRobin: return "round-robin";
      case PlacementPolicy::LeastLoaded: return "least-loaded";
      case PlacementPolicy::FunctionAffinity: return "function-affinity";
      case PlacementPolicy::NetworkAware: return "network-aware";
    }
    return "?";
}

Cluster::Cluster(std::size_t machines, PlacementPolicy policy,
                 PlatformConfig config, core::CatalyzerOptions options,
                 sim::CostModel costs, std::uint64_t seed,
                 net::FabricConfig fabric_config)
    : policy_(policy), fabric_(fabric_config), registry_(&fabric_),
      chunked_images_(options.chunkedImages.enabled)
{
    if (machines == 0)
        sim::fatal("Cluster: need at least one machine");
    nodes_.reserve(machines);
    for (std::size_t i = 0; i < machines; ++i) {
        Node node;
        node.machine =
            std::make_unique<sandbox::Machine>(seed + i, costs);
        // Node id before the platform: its flight recorder and span
        // lane tags capture the id at construction.
        node.machine->setNodeId(static_cast<std::uint32_t>(i));
        node.platform = std::make_unique<ServerlessPlatform>(
            *node.machine, config, options);
        // Image fetches ride the shared fabric (in flat-compat mode by
        // default, which charges exactly the legacy formula); replicas
        // are tracked only when P2P fetch may use them, and the chunk
        // directory only when content-addressed fetch is on.
        node.platform->catalyzer().images().attachFabric(
            &fabric_, static_cast<net::NodeId>(i),
            fabric_config.p2pImages || options.chunkedImages.enabled
                ? &registry_
                : nullptr,
            options.chunkedImages.enabled
                ? static_cast<net::ChunkDirectory *>(&registry_)
                : nullptr);
        if (fabric_config.remoteFork) {
            remote::RemoteBootEnv env;
            env.fabric = &fabric_;
            env.registry = &registry_;
            env.self = static_cast<net::NodeId>(i);
            env.forkSource = [this](const std::string &name,
                                    net::NodeId peer)
                -> std::optional<core::RemoteForkSource> {
                if (peer >= nodes_.size())
                    return std::nullopt;
                ServerlessPlatform &lender = *nodes_[peer].platform;
                sandbox::FunctionArtifacts *fn =
                    lender.registry().find(name);
                if (!fn || !fn->templateSandbox || !fn->separatedImage)
                    return std::nullopt;
                core::RemoteForkSource src;
                src.templateInstance = fn->templateSandbox.get();
                src.image = fn->separatedImage;
                src.manifest = fn->workingSet;
                src.fabric = &fabric_;
                src.peer = peer;
                // Lender-side observability endpoints: the borrower's
                // boot re-homes its trace id onto this tracer so both
                // halves of the handshake share one distributed trace.
                src.peerTracer = &nodes_[peer].machine->tracer();
                src.peerClock = &nodes_[peer].machine->ctx().clock();
                return src;
            };
            node.platform->setRemoteEnv(std::move(env));
        }
        nodes_.push_back(std::move(node));
    }
}

void
Cluster::deploy(const apps::AppProfile &app)
{
    for (auto &node : nodes_)
        node.platform->deploy(app);
}

void
Cluster::prepareEverywhere(const apps::AppProfile &app)
{
    for (auto &node : nodes_)
        node.platform->prepare(app);
}

std::size_t
Cluster::pick(const std::string &function_name,
              const std::vector<std::size_t> &loads,
              const std::vector<std::size_t> &affinity_bytes)
{
    if (loads.size() != nodes_.size())
        sim::panic("Cluster: %zu projected loads for %zu machines",
                   loads.size(), nodes_.size());
    switch (policy_) {
      case PlacementPolicy::RoundRobin:
        return next_rr_++ % nodes_.size();
      case PlacementPolicy::LeastLoaded:
        return leastLoaded(loads);
      case PlacementPolicy::FunctionAffinity:
        return std::hash<std::string>{}(function_name) % nodes_.size();
      case PlacementPolicy::NetworkAware: {
        // Least-loaded overall is the baseline (lowest index on ties).
        const std::size_t best = leastLoaded(loads);
        const std::size_t best_load = loads[best];
        // State gravity beats template gravity: streaming a resident
        // region across the fabric dwarfs a remote sfork, so a machine
        // already holding the stage's regions wins as long as it is
        // within the load slack of the least-loaded machine.
        constexpr std::size_t kLoadSlack = 4;
        bool have_affine = false;
        std::size_t abest = 0, abytes = 0;
        for (std::size_t i = 0;
             i < affinity_bytes.size() && i < nodes_.size(); ++i) {
            if (affinity_bytes[i] == 0 ||
                loads[i] > best_load + kLoadSlack)
                continue;
            if (!have_affine || affinity_bytes[i] > abytes) {
                have_affine = true;
                abest = i;
                abytes = affinity_bytes[i];
            }
        }
        if (have_affine)
            return abest;
        const std::vector<net::NodeId> holders =
            registry_.templateHolders(function_name);
        if (holders.empty())
            return best;
        // A template holder boots with a local sfork; stick with the
        // least-loaded one until it is clearly busier than the fleet.
        bool have_holder = false;
        std::size_t hbest = 0, hload = 0;
        for (net::NodeId id : holders) {
            if (id >= nodes_.size())
                continue;
            const std::size_t load = loads[id];
            if (!have_holder || load < hload) {
                have_holder = true;
                hbest = id;
                hload = load;
            }
        }
        if (have_holder && hload <= best_load + kLoadSlack)
            return hbest;
        // Holders are saturated: a same-rack neighbor remote-sforks at
        // ToR latency, still far cheaper than a cold boot elsewhere.
        bool have_rack = false;
        std::size_t rbest = 0, rload = 0;
        for (std::size_t i = 0; i < nodes_.size(); ++i) {
            bool near_holder = false;
            for (net::NodeId id : holders) {
                if (id < nodes_.size() && id != i &&
                    fabric_.sameRack(static_cast<net::NodeId>(i), id)) {
                    near_holder = true;
                    break;
                }
            }
            if (!near_holder)
                continue;
            const std::size_t load = loads[i];
            if (!have_rack || load < rload) {
                have_rack = true;
                rbest = i;
                rload = load;
            }
        }
        if (have_rack && rload <= best_load + kLoadSlack)
            return rbest;
        return best;
      }
    }
    sim::panic("unreachable placement policy");
}

std::size_t
Cluster::route(const std::string &function_name)
{
    return pick(function_name, instanceLoads());
}

std::size_t
Cluster::routeProjected(const std::string &function_name,
                        const std::vector<std::size_t> &loads)
{
    return pick(function_name, loads);
}

std::size_t
Cluster::routeStage(const std::string &function_name,
                    const std::vector<std::size_t> &region_affinity_bytes)
{
    return pick(function_name, instanceLoads(), region_affinity_bytes);
}

state::StateRegionStore &
Cluster::stateRegions()
{
    if (!state_) {
        state_ = std::make_unique<state::StateRegionStore>(&fabric_);
        for (std::size_t i = 0; i < nodes_.size(); ++i)
            state_->addNode(static_cast<net::NodeId>(i),
                            nodes_[i].machine->frames(),
                            nodes_[i].machine->ctx());
    }
    return *state_;
}

std::size_t
Cluster::stateResidentBytes(std::size_t i) const
{
    if (!state_)
        return 0;
    return state_->residentBytesOn(static_cast<net::NodeId>(i));
}

std::vector<std::size_t>
Cluster::instanceLoads() const
{
    std::vector<std::size_t> loads;
    loads.reserve(nodes_.size());
    for (const auto &node : nodes_)
        loads.push_back(node.platform->totalInstances());
    return loads;
}

bool
Cluster::shareNothing() const
{
    // Chunked image fetches consult the shared chunk directory
    // mid-request, so such fleets are coupled like P2P ones.
    return !fabric_.config().remoteFork && !fabric_.config().p2pImages &&
           !chunked_images_;
}

void
Cluster::alignWindowOrigins()
{
    for (auto &node : nodes_)
        node.machine->ctx().stats().setWindowOrigin(
            node.machine->ctx().clock().now());
}

ClusterInvocation
Cluster::invoke(const std::string &function_name,
                trace::TraceContext trace)
{
    return invokeOn(pick(function_name, instanceLoads()), function_name,
                    trace);
}

ClusterInvocation
Cluster::invokeOn(std::size_t target, const std::string &function_name,
                  trace::TraceContext trace)
{
    if (target >= nodes_.size())
        sim::panic("Cluster::invokeOn: machine %zu out of range", target);
    if (!trace.enabled()) {
        // Self-trace into the chosen machine's always-on ring so fleet
        // exports and flight-recorder dumps see the whole request.
        sandbox::Machine &m = *nodes_[target].machine;
        trace = trace::TraceContext(m.tracer(), m.ctx().clock());
    }
    trace::ScopedSpan span(trace, "cluster-invoke");
    span.attr("function", function_name);
    span.attr("machine", static_cast<std::int64_t>(target));
    span.attr("policy", placementPolicyName(policy_));
    ClusterInvocation out;
    out.machineIndex = target;
    out.record =
        nodes_[target].platform->invoke(function_name, span.context());
    span.attr("tier", out.record.tierServed);
    return out;
}

ServerlessPlatform &
Cluster::platform(std::size_t i)
{
    if (i >= nodes_.size())
        sim::panic("Cluster::platform: index %zu out of range", i);
    return *nodes_[i].platform;
}

sandbox::Machine &
Cluster::machine(std::size_t i)
{
    if (i >= nodes_.size())
        sim::panic("Cluster::machine: index %zu out of range", i);
    return *nodes_[i].machine;
}

std::size_t
Cluster::totalInstances() const
{
    std::size_t n = 0;
    for (const auto &node : nodes_)
        n += node.platform->totalInstances();
    return n;
}

std::vector<std::size_t>
Cluster::placementOf(const std::string &function_name) const
{
    std::vector<std::size_t> out;
    out.reserve(nodes_.size());
    for (const auto &node : nodes_)
        out.push_back(node.platform->runningCount(function_name));
    return out;
}

void
Cluster::mergeStats(sim::StatRegistry &out) const
{
    std::lock_guard<std::mutex> lock(aggregation_mu_);
    // Counters sum, histogram samples concatenate, windowed series
    // merge per window (machine order, then sample order, so the
    // output is deterministic).
    for (const auto &node : nodes_)
        out.merge(node.machine->ctx().stats());
}

void
Cluster::statsSnapshot(std::ostream &os) const
{
    sim::StatRegistry fleet;
    mergeStats(fleet);
    os << "{\"machines\": " << nodes_.size();
    // Stateless clusters keep the legacy snapshot byte-identical; the
    // state block appears only once someone created a region.
    if (state_ && state_->regionCount() > 0) {
        os << ", \"state\": {\"regions\": " << state_->regionCount()
           << ", \"resident_bytes\": [";
        std::size_t total = 0;
        for (std::size_t i = 0; i < nodes_.size(); ++i) {
            const std::size_t bytes = stateResidentBytes(i);
            total += bytes;
            os << (i == 0 ? "" : ", ") << bytes;
        }
        os << "], \"resident_bytes_total\": " << total << "}";
    }
    os << ", \"fleet\": ";
    fleet.writeJson(os);
    os << "}\n";
}

void
Cluster::exportFleetTrace(std::ostream &os) const
{
    std::lock_guard<std::mutex> lock(aggregation_mu_);
    std::vector<const trace::Tracer *> tracers;
    tracers.reserve(nodes_.size());
    for (const auto &node : nodes_)
        tracers.push_back(&node.machine->tracer());
    obs::exportFleetChromeTrace(tracers, os);
}

void
Cluster::writeTimeSeriesJson(std::ostream &os) const
{
    sim::StatRegistry fleet;
    mergeStats(fleet);
    fleet.writeTimeSeriesJson(os);
}

} // namespace catalyzer::platform
