#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "apps/app_profile.h"
#include "sim/logging.h"
#include "workflow/scenarios.h"

namespace perfbench {

using namespace catalyzer;

namespace {

constexpr std::size_t kMiB = std::size_t{1} << 20;

/** Keep-alive and tick settings every workload shares. */
void
commonPolicy(load::FleetRunConfig &run, int workers)
{
    run.policy.keepAliveTtl = sim::SimTime::seconds(1.0);
    run.policy.policyTick = sim::SimTime::milliseconds(500.0);
    run.simThreads = workers;
}

/**
 * fig_fleet_slo's flash-crowd x prewarm arm: NetworkAware placement
 * with remote-sfork lending, so the fleet is coupled.
 */
Workload
catalogFlash(std::uint64_t variant, Scale scale, int workers)
{
    const bool toy = scale == Scale::Toy;
    Workload w;
    w.name = "catalog_flash";
    w.population.functions = toy ? 24 : 200;
    w.population.tenants = toy ? 6 : 24;
    w.population.totalRps = toy ? 120.0 : 400.0;
    w.population.zipfSkew = 1.0;
    w.population.seed = 1;
    w.machines = toy ? 2 : 4;
    w.placement = platform::PlacementPolicy::NetworkAware;
    w.platform.strategy = platform::BootStrategy::CatalyzerAuto;
    w.platform.reuseIdleInstances = true;
    w.fabric.modelTransfers = true;
    w.fabric.remoteFork = true;
    w.fabric.machinesPerRack = std::min<std::size_t>(2, w.machines);

    const double duration = toy ? 2.0 : 15.0;
    w.traffic.scenario = load::Scenario::FlashCrowd;
    w.traffic.durationSec = duration;
    w.traffic.seed = 7 + variant;
    w.traffic.flashAtSec = duration * 0.5;
    w.traffic.flashRampSec = duration * 0.1;
    w.traffic.flashHoldSec = duration * 0.25;
    w.traffic.flashFunctions =
        std::max<std::size_t>(toy ? 6 : 32, w.population.functions / 4);
    w.traffic.flashRpsPerFunction = 3.0;

    commonPolicy(w.run, workers);
    w.run.policy.prewarmRateRps = 2.0;
    w.run.policy.machineResidentBudgetBytes = 2048 * kMiB;
    w.run.policy.reactiveRebalance = true;
    w.run.policy.predictivePrewarm = true;
    return w;
}

/**
 * A share-nothing fleet where every request boots a fresh instance
 * that is torn down afterwards: per-boot host cost and the parallel
 * executor dominate.
 */
Workload
bootStorm(std::uint64_t variant, Scale scale, int workers)
{
    const bool toy = scale == Scale::Toy;
    Workload w;
    w.name = "boot_storm";
    w.population.functions = toy ? 8 : 16;
    w.population.tenants = toy ? 2 : 4;
    w.population.totalRps = toy ? 200.0 : 400.0;
    w.population.zipfSkew = 0.5;
    w.population.seed = 1;
    w.machines = toy ? 4 : 8;
    // Each function homes on one machine, so that machine's template
    // serves nearly every boot as an sfork.
    w.placement = platform::PlacementPolicy::FunctionAffinity;
    w.platform.strategy = platform::BootStrategy::CatalyzerAuto;
    w.platform.reuseIdleInstances = false;
    // Reuse off with retain on would pile up idle instances for the
    // whole run; every boot here is torn down after its request.
    w.platform.retainInstances = false;

    w.traffic.scenario = load::Scenario::Steady;
    w.traffic.durationSec = toy ? 3.0 : 300.0;
    w.traffic.seed = 7 + variant;

    commonPolicy(w.run, workers);
    return w;
}

/**
 * Functions plus a stateful-workflow side stream over remote, chunked
 * images with locality-aware placement: the only workload that drives
 * state regions, workflows, the chunk store and image fetch.
 */
Workload
chainMix(std::uint64_t variant, Scale scale, int workers)
{
    const bool toy = scale == Scale::Toy;
    Workload w;
    w.name = "chain_mix";
    w.population.functions = toy ? 16 : 100;
    w.population.tenants = toy ? 4 : 8;
    w.population.totalRps = toy ? 80.0 : 400.0;
    w.population.zipfSkew = 1.0;
    w.population.seed = 1;
    w.machines = toy ? 2 : 4;
    w.placement = platform::PlacementPolicy::NetworkAware;
    w.platform.strategy = platform::BootStrategy::CatalyzerAuto;
    w.platform.reuseIdleInstances = true;
    w.options.remoteImages = true;
    w.options.chunkedImages.enabled = true;
    // Chunk tiers far smaller than the catalog: published chunks get
    // dropped, so later fetches stream them from peers or origin.
    w.options.chunkedImages.ramBudgetBytes = 32 * kMiB;
    w.options.chunkedImages.ssdBudgetBytes = 128 * kMiB;
    w.fabric.modelTransfers = true;
    w.prebuildImages = false;

    w.traffic.scenario = load::Scenario::Steady;
    w.traffic.durationSec = toy ? 2.0 : 10.0;
    w.traffic.seed = 7 + variant;
    w.traffic.workflowRps = toy ? 6.0 : 20.0;
    w.traffic.workflowKinds = 2;

    commonPolicy(w.run, workers);
    w.run.workflows = {workflow::pipelineAnalytics(4, 256),
                       workflow::shoppingCartSession(3, 64)};
    w.run.workflowLocalityAware = true;
    return w;
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "catalog_flash", "boot_storm", "chain_mix"};
    return names;
}

Workload
makeWorkload(const std::string &name, std::uint64_t variant, Scale scale,
             int workers)
{
    if (name == "catalog_flash")
        return catalogFlash(variant, scale, workers);
    if (name == "boot_storm")
        return bootStorm(variant, scale, workers);
    if (name == "chain_mix")
        return chainMix(variant, scale, workers);
    sim::fatal("perfbench: unknown workload '%s'", name.c_str());
}

std::vector<std::string>
workflowFunctions(const Workload &workload)
{
    std::vector<std::string> fns;
    for (const workflow::WorkflowSpec &spec : workload.run.workflows) {
        for (const workflow::StageSpec &stage : spec.stages)
            fns.push_back(stage.function);
    }
    std::sort(fns.begin(), fns.end());
    fns.erase(std::unique(fns.begin(), fns.end()), fns.end());
    return fns;
}

Fleet
setUp(const Workload &workload)
{
    Fleet fleet;
    fleet.population =
        std::make_unique<load::Population>(workload.population);
    fleet.cluster = std::make_unique<platform::Cluster>(
        workload.machines, workload.placement, workload.platform,
        workload.options, sim::CostModel{}, 42, workload.fabric);
    for (const std::string &fn : workflowFunctions(workload))
        fleet.cluster->deploy(apps::appByName(fn));
    fleet.population->deployTo(*fleet.cluster);
    fleet.stream = load::generateFleetStream(*fleet.population,
                                             workload.traffic);
    return fleet;
}

std::string
reportDigest(const load::FleetReport &report)
{
    std::ostringstream os;
    report.writeJson(os);
    std::uint64_t h = 1469598103934665603ull;
    for (const char c : os.str()) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

} // namespace perfbench
