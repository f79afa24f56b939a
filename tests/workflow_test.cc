/**
 * @file
 * Tests for DAG workflows (src/workflow/): spec validation and
 * topological ordering, locality-aware vs blind stage placement,
 * critical-path latency math, cross-machine trace stitching, the gated
 * state block in fleet snapshots, autoscaler residency accounting and
 * deterministic fleet replay with a workflow side stream.
 */

#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "load/driver.h"
#include "load/population.h"
#include "load/traffic.h"
#include "mem/types.h"
#include "platform/cluster.h"
#include "workflow/scenarios.h"
#include "workflow/workflow.h"

namespace catalyzer::workflow {
namespace {

using namespace sim::time_literals;

/** A cluster with every scenario function deployed and prepared. */
std::unique_ptr<platform::Cluster>
makeChainCluster(std::size_t machines, platform::PlacementPolicy policy)
{
    net::FabricConfig fabric;
    fabric.modelTransfers = true;
    platform::PlatformConfig pconf;
    pconf.strategy = platform::BootStrategy::CatalyzerAuto;
    pconf.reuseIdleInstances = true;
    auto cluster = std::make_unique<platform::Cluster>(
        machines, policy, pconf, core::CatalyzerOptions{},
        sim::CostModel{}, 42, fabric);
    for (const std::string &fn : scenarioFunctions()) {
        const apps::AppProfile &app = apps::appByName(fn);
        cluster->deploy(app);
        cluster->prepareEverywhere(app);
    }
    return cluster;
}

//
// Spec validation and ordering.
//

TEST(WorkflowSpecTest, ValidationDeaths)
{
    WorkflowSpec empty;
    empty.name = "empty";
    EXPECT_DEATH(empty.validate(), "no stages");

    WorkflowSpec spec;
    spec.name = "bad";
    spec.regions = {{"r", 8}};
    spec.stages = {{"a", "wf-ingest", {}, {}, {"r"}, 0, 0},
                   {"b", "wf-aggregate", {"a"}, {"r"}, {}, 0, 0}};
    spec.validate(); // well-formed baseline

    WorkflowSpec self = spec;
    self.stages[0].after = {"a"};
    EXPECT_DEATH(self.validate(), "depends on itself");

    WorkflowSpec unknown = spec;
    unknown.stages[1].after = {"ghost"};
    EXPECT_DEATH(unknown.validate(), "unknown");

    WorkflowSpec cycle = spec;
    cycle.stages[0].after = {"b"};
    EXPECT_DEATH(cycle.validate(), "cycle");

    WorkflowSpec dup = spec;
    dup.stages[1].name = "a";
    EXPECT_DEATH(dup.validate(), "duplicate");

    WorkflowSpec undeclared = spec;
    undeclared.stages[1].reads = {"missing"};
    EXPECT_DEATH(undeclared.validate(), "undeclared region");
}

TEST(WorkflowSpecTest, TopoOrderIsStableAndDependencyRespecting)
{
    const WorkflowSpec spec = pipelineAnalytics(3, 32);
    const std::vector<std::size_t> order = spec.topoOrder();
    ASSERT_EQ(order.size(), spec.stages.size());
    // Every stage appears after all of its dependencies.
    std::vector<std::size_t> pos(order.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        pos[order[i]] = i;
    for (std::size_t i = 0; i < spec.stages.size(); ++i) {
        for (const std::string &dep : spec.stages[i].after) {
            std::size_t d = 0;
            while (spec.stages[d].name != dep)
                ++d;
            EXPECT_LT(pos[d], pos[i]);
        }
    }
    // Stable: ready stages run in spec order, so the ingest leads and
    // the transforms follow in declaration order.
    EXPECT_EQ(order.front(), 0u);
    EXPECT_EQ(spec.topoOrder(), order);
}

//
// Engine placement and latency accounting.
//

TEST(WorkflowEngineTest, LocalityAwareCoSchedulesEveryHop)
{
    auto cluster_ptr = makeChainCluster(
        2, platform::PlacementPolicy::NetworkAware);
    platform::Cluster &cluster = *cluster_ptr;
    WorkflowEngine engine(cluster);
    const WorkflowResult result = engine.run(shoppingCartSession(3, 16));
    EXPECT_GT(result.hopsLocal, 0u);
    EXPECT_EQ(result.hopsRemote, 0u);
    EXPECT_GT(result.cowFaults, 0u);
    EXPECT_GT(result.readFaults, 0u);
}

TEST(WorkflowEngineTest, BlindPlacementPaysRemoteHopsAndTransfers)
{
    auto cluster_ptr = makeChainCluster(
        2, platform::PlacementPolicy::RoundRobin);
    platform::Cluster &cluster = *cluster_ptr;
    WorkflowEngine engine(cluster, WorkflowOptions{false});
    const WorkflowResult result = engine.run(shoppingCartSession(3, 16));
    EXPECT_GT(result.hopsRemote, 0u);
    EXPECT_GT(result.transferBytes, 0u);
    // A remote hop is strictly more virtual time than a local one:
    // dispatch + fabric RTT (+ the region streamed on first attach).
    for (const StageOutcome &stage : result.stages) {
        if (stage.depsRemote > 0) {
            EXPECT_GT(stage.hopLatency, sim::SimTime());
        }
    }
}

TEST(WorkflowEngineTest, CriticalPathIsMaxStageFinish)
{
    auto cluster_ptr = makeChainCluster(
        4, platform::PlacementPolicy::RoundRobin);
    platform::Cluster &cluster = *cluster_ptr;
    WorkflowEngine engine(cluster, WorkflowOptions{false});
    const WorkflowResult result = engine.run(pipelineAnalytics(4, 32));

    sim::SimTime max_finish, serial;
    for (const StageOutcome &stage : result.stages) {
        EXPECT_GE(stage.finishAt, stage.readyAt);
        max_finish = std::max(max_finish, stage.finishAt);
        serial += stage.finishAt - stage.readyAt;
    }
    EXPECT_EQ(result.e2e, max_finish);
    // Fan-out transforms scattered over four machines overlap in
    // virtual time, so the critical path beats the serial sum.
    EXPECT_LT(result.e2e, serial);
}

TEST(WorkflowEngineTest, TraceIdStitchesStagesAcrossMachines)
{
    auto cluster_ptr = makeChainCluster(
        2, platform::PlacementPolicy::RoundRobin);
    platform::Cluster &cluster = *cluster_ptr;
    WorkflowEngine engine(cluster, WorkflowOptions{false});
    const trace::TraceContext pinned(cluster.machine(0).tracer(),
                                     cluster.machine(0).ctx().clock(), 0,
                                     777);
    const WorkflowResult result =
        engine.run(shoppingCartSession(2, 16), pinned);
    EXPECT_EQ(result.traceId, 777u);

    std::set<std::uint32_t> lanes;
    for (std::size_t m = 0; m < cluster.machineCount(); ++m) {
        for (const trace::Span &s :
             cluster.machine(m).tracer().snapshot()) {
            if (s.traceId == 777u)
                lanes.insert(s.machine);
        }
    }
    EXPECT_GT(lanes.size(), 1u);
}

//
// Fleet snapshot gating and autoscaler accounting.
//

TEST(WorkflowEngineTest, StatsSnapshotStateBlockIsPayForUse)
{
    auto cluster_ptr = makeChainCluster(
        2, platform::PlacementPolicy::NetworkAware);
    platform::Cluster &cluster = *cluster_ptr;
    std::ostringstream before;
    cluster.statsSnapshot(before);
    EXPECT_EQ(before.str().find("\"state\""), std::string::npos);

    WorkflowEngine engine(cluster);
    engine.run(shoppingCartSession(2, 16));
    std::ostringstream after;
    cluster.statsSnapshot(after);
    EXPECT_NE(after.str().find("\"state\""), std::string::npos);
    EXPECT_NE(after.str().find("\"resident_bytes_total\""),
              std::string::npos);

    std::size_t resident = 0;
    for (std::size_t m = 0; m < cluster.machineCount(); ++m)
        resident += cluster.stateResidentBytes(m);
    EXPECT_GT(resident, 0u);
}

TEST(WorkflowEngineTest, AutoscalerBudgetSeesRegionResidency)
{
    auto cluster_ptr = makeChainCluster(
        2, platform::PlacementPolicy::NetworkAware);
    platform::Cluster &cluster = *cluster_ptr;
    load::PopulationSpec pspec;
    pspec.functions = 4;
    pspec.tenants = 2;
    pspec.totalRps = 10.0;
    const load::Population pop(pspec);
    load::FleetAutoscaler scaler(cluster, pop, {});

    const std::size_t before = scaler.residentBytes(0);
    cluster.stateRegions().ensure("model", 256, 0);
    EXPECT_EQ(scaler.residentBytes(0),
              before + mem::bytesForPages(256));
    EXPECT_EQ(scaler.fleetResidentBytes(),
              scaler.residentBytes(0) + scaler.residentBytes(1));
}

//
// Fleet replay with a workflow side stream.
//

TEST(WorkflowFleetTest, WorkflowTapeEntriesAreDeterministic)
{
    load::TrafficSpec traffic;
    traffic.durationSec = 2.0;
    traffic.workflowRps = 5.0;
    traffic.workflowKinds = 2;
    load::PopulationSpec pspec;
    pspec.functions = 6;
    pspec.tenants = 2;
    pspec.totalRps = 20.0;
    const load::Population pop(pspec);

    const auto a = load::generateFleetStream(pop, traffic);
    const auto b = load::generateFleetStream(pop, traffic);
    ASSERT_EQ(a.size(), b.size());
    std::size_t workflows = 0;
    std::set<std::int32_t> kinds;
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_DOUBLE_EQ(a[i].atSec, b[i].atSec);
        EXPECT_EQ(a[i].workflow, b[i].workflow);
        if (a[i].workflow >= 0) {
            ++workflows;
            kinds.insert(a[i].workflow);
        }
        if (i > 0) {
            EXPECT_GE(a[i].atSec, a[i - 1].atSec);
        }
    }
    EXPECT_GT(workflows, 0u);
    EXPECT_EQ(kinds.size(), 2u); // round-robin across workflowKinds
}

TEST(WorkflowFleetTest, FleetReplayWithWorkflowsIsThreadInvariant)
{
    auto run = [](int threads) {
        load::PopulationSpec pspec;
        pspec.functions = 6;
        pspec.tenants = 2;
        pspec.totalRps = 20.0;
        const load::Population pop(pspec);
        load::TrafficSpec traffic;
        traffic.durationSec = 1.5;
        traffic.workflowRps = 4.0;
        traffic.workflowKinds = 2;

        load::FleetRunConfig config;
        config.policy.keepAliveTtl = 300_ms;
        config.simThreads = threads;
        config.workflows = {pipelineAnalytics(2, 32),
                            shoppingCartSession(2, 16)};

        auto cluster_ptr = makeChainCluster(
            2, platform::PlacementPolicy::NetworkAware);
        platform::Cluster &cluster = *cluster_ptr;
        const load::FleetReport report =
            load::FleetDriver(cluster, pop).run(traffic, config);
        EXPECT_GT(report.workflowRuns, 0u);
        EXPECT_GT(report.chainHopsLocal + report.chainHopsRemote, 0u);
        EXPECT_EQ(report.chainE2e.count(), report.workflowRuns);

        std::ostringstream rep, trace;
        report.writeJson(rep);
        cluster.exportFleetTrace(trace);
        return rep.str() + trace.str();
    };
    const std::string one = run(1);
    EXPECT_EQ(one, run(8));
    EXPECT_NE(one.find("\"workflows\""), std::string::npos);
}

TEST(WorkflowFleetTest, ReportOmitsWorkflowBlockWithoutWorkflows)
{
    load::PopulationSpec pspec;
    pspec.functions = 4;
    pspec.tenants = 2;
    pspec.totalRps = 15.0;
    const load::Population pop(pspec);
    load::TrafficSpec traffic;
    traffic.durationSec = 1.0;

    load::FleetRunConfig config;
    config.policy.keepAliveTtl = 300_ms;
    auto cluster_ptr = makeChainCluster(
        2, platform::PlacementPolicy::NetworkAware);
    platform::Cluster &cluster = *cluster_ptr;
    const load::FleetReport report =
        load::FleetDriver(cluster, pop).run(traffic, config);
    EXPECT_EQ(report.workflowRuns, 0u);
    std::ostringstream rep;
    report.writeJson(rep);
    EXPECT_EQ(rep.str().find("\"workflows\""), std::string::npos);
}

} // namespace
} // namespace catalyzer::workflow
