/**
 * @file
 * Tests for the multi-machine cluster and placement policies.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "platform/cluster.h"

namespace catalyzer::platform {
namespace {

TEST(ClusterTest, RoundRobinSpreadsInstances)
{
    Cluster cluster(4, PlacementPolicy::RoundRobin,
                    PlatformConfig{BootStrategy::CatalyzerWarm});
    cluster.deploy(apps::appByName("ds-text"));
    for (int i = 0; i < 8; ++i)
        cluster.invoke("ds-text");
    // One function deployed: each machine's load is its placement.
    EXPECT_EQ(cluster.instanceLoads(),
              (std::vector<std::size_t>{2, 2, 2, 2}));
}

TEST(ClusterTest, AffinityKeepsFunctionsHome)
{
    Cluster cluster(4, PlacementPolicy::FunctionAffinity,
                    PlatformConfig{BootStrategy::CatalyzerWarm});
    cluster.deploy(apps::appByName("ds-text"));
    std::size_t home = cluster.invoke("ds-text").machineIndex;
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(cluster.invoke("ds-text").machineIndex, home);
    EXPECT_EQ(cluster.platform(home).runningCount("ds-text"), 6u);
}

TEST(ClusterTest, LeastLoadedBalances)
{
    Cluster cluster(3, PlacementPolicy::LeastLoaded,
                    PlatformConfig{BootStrategy::CatalyzerWarm});
    cluster.deploy(apps::appByName("ds-text"));
    cluster.deploy(apps::appByName("ds-media"));
    for (int i = 0; i < 9; ++i)
        cluster.invoke(i % 2 ? "ds-text" : "ds-media");
    // No machine is more than slightly ahead.
    std::size_t max_load = 0, min_load = 100, total = 0;
    for (std::size_t i = 0; i < cluster.machineCount(); ++i) {
        const std::size_t load = cluster.platform(i).totalInstances();
        max_load = std::max(max_load, load);
        min_load = std::min(min_load, load);
        total += load;
    }
    EXPECT_EQ(total, 9u);
    EXPECT_LE(max_load - min_load, 1u);
}

TEST(ClusterTest, AffinityPreservesWarmLocality)
{
    // Under affinity every request of a function lands on its home
    // machine, so after the first cold boot everything is warm. Under
    // round robin each machine pays its own cold boot.
    auto run = [](PlacementPolicy policy) {
        Cluster cluster(4, policy,
                        PlatformConfig{BootStrategy::CatalyzerAuto});
        cluster.deploy(apps::appByName("python-hello"));
        double total_boot = 0.0;
        for (int i = 0; i < 8; ++i)
            total_boot +=
                cluster.invoke("python-hello").record.bootLatency.toMs();
        return total_boot;
    };
    EXPECT_LT(run(PlacementPolicy::FunctionAffinity),
              run(PlacementPolicy::RoundRobin));
}

TEST(ClusterTest, RemoteImagesFetchedPerMachine)
{
    core::CatalyzerOptions options;
    options.remoteImages = true;
    Cluster cluster(3, PlacementPolicy::RoundRobin,
                    PlatformConfig{BootStrategy::CatalyzerCold}, options);
    cluster.deploy(apps::appByName("c-hello"));
    for (int i = 0; i < 6; ++i)
        cluster.invoke("c-hello");
    // Each machine fetched the image exactly once.
    for (std::size_t i = 0; i < cluster.machineCount(); ++i) {
        EXPECT_EQ(cluster.machine(i).ctx().stats().value(
                      "snapshot.image_remote_fetches"), 1)
            << "machine " << i;
    }
}

TEST(ClusterTest, LeastLoadedBreaksTiesDeterministically)
{
    // Every machine starts equally empty: the tie must go to the first
    // machine, every time, so runs are bit-reproducible.
    for (int run = 0; run < 3; ++run) {
        Cluster cluster(4, PlacementPolicy::LeastLoaded,
                        PlatformConfig{BootStrategy::CatalyzerWarm});
        cluster.deploy(apps::appByName("c-hello"));
        EXPECT_EQ(cluster.invoke("c-hello").machineIndex, 0u);
        // One instance on 0: the next tie among {1, 2, 3} picks 1.
        EXPECT_EQ(cluster.invoke("c-hello").machineIndex, 1u);
    }
}

TEST(ClusterTest, AffinityHashIsStableAcrossClusters)
{
    // The affinity hash must map a function to the same home machine in
    // every identically-sized fleet (it is a pure function of the name).
    const char *functions[] = {"c-hello", "python-hello", "ds-text",
                               "java-specjbb"};
    Cluster a(4, PlacementPolicy::FunctionAffinity,
              PlatformConfig{BootStrategy::CatalyzerWarm});
    Cluster b(4, PlacementPolicy::FunctionAffinity,
              PlatformConfig{BootStrategy::CatalyzerWarm});
    for (const char *fn : functions) {
        a.deploy(apps::appByName(fn));
        b.deploy(apps::appByName(fn));
        EXPECT_EQ(a.invoke(fn).machineIndex, b.invoke(fn).machineIndex)
            << fn;
    }
}

TEST(ClusterTest, RoundRobinDistributionIsExact)
{
    Cluster cluster(3, PlacementPolicy::RoundRobin,
                    PlatformConfig{BootStrategy::CatalyzerWarm});
    cluster.deploy(apps::appByName("ds-text"));
    for (int i = 0; i < 7; ++i)
        cluster.invoke("ds-text");
    // 7 requests over 3 machines in order: 3, 2, 2.
    EXPECT_EQ(cluster.instanceLoads(), (std::vector<std::size_t>{3, 2, 2}));
}

TEST(ClusterTest, NetworkAwarePrefersTemplateHolder)
{
    net::FabricConfig fabric;
    fabric.modelTransfers = true;
    fabric.remoteFork = true;
    Cluster cluster(4, PlacementPolicy::NetworkAware,
                    PlatformConfig{BootStrategy::CatalyzerAuto}, {},
                    sim::CostModel{}, 42, fabric);
    const apps::AppProfile &app = apps::appByName("python-hello");
    cluster.deploy(app);
    // Only machine 2 holds the template: requests should go there (a
    // local sfork) even though machines 0 and 1 are equally idle.
    cluster.platform(2).prepare(app);
    for (int i = 0; i < 3; ++i) {
        const auto out = cluster.invoke("python-hello");
        EXPECT_EQ(out.machineIndex, 2u);
        EXPECT_EQ(out.record.tierServed, "sfork");
    }
}

TEST(ClusterTest, FleetStatsSnapshotAggregates)
{
    Cluster cluster(3, PlacementPolicy::RoundRobin,
                    PlatformConfig{BootStrategy::CatalyzerWarm});
    cluster.deploy(apps::appByName("c-hello"));
    for (int i = 0; i < 6; ++i)
        cluster.invoke("c-hello");
    std::ostringstream os;
    cluster.statsSnapshot(os);
    const std::string json = os.str();
    EXPECT_NE(json.find("\"machines\": 3"), std::string::npos);
    // 6 invocations fleet-wide although each machine only saw 2.
    EXPECT_NE(json.find("\"platform.invocations\": 6"),
              std::string::npos);
    EXPECT_EQ(
        cluster.machine(0).ctx().stats().value("platform.invocations"),
        2);
}

TEST(ClusterTest, RouteProjectedMatchesRouteOnLiveLoads)
{
    // routeProjected against the live load vector must pick the same
    // machine route() would, for every policy — the parallel driver
    // leans on this to pre-route epochs without changing placement.
    // routeStage with no affinity must do the same: its header
    // promises exactly route()'s behavior.
    for (PlacementPolicy policy :
         {PlacementPolicy::RoundRobin, PlacementPolicy::LeastLoaded,
          PlacementPolicy::FunctionAffinity,
          PlacementPolicy::NetworkAware}) {
        Cluster a(3, policy,
                  PlatformConfig{BootStrategy::CatalyzerWarm});
        Cluster b(3, policy,
                  PlatformConfig{BootStrategy::CatalyzerWarm});
        Cluster c(3, policy,
                  PlatformConfig{BootStrategy::CatalyzerWarm});
        a.deploy(apps::appByName("ds-text"));
        b.deploy(apps::appByName("ds-text"));
        c.deploy(apps::appByName("ds-text"));
        for (int i = 0; i < 7; ++i) {
            const std::size_t live = a.route("ds-text");
            const std::size_t projected =
                b.routeProjected("ds-text", b.instanceLoads());
            const std::size_t stage = c.routeStage("ds-text", {});
            EXPECT_EQ(live, projected) << "policy "
                                       << placementPolicyName(policy)
                                       << " step " << i;
            EXPECT_EQ(live, stage) << "policy "
                                   << placementPolicyName(policy)
                                   << " step " << i;
            a.invokeOn(live, "ds-text");
            b.invokeOn(projected, "ds-text");
            c.invokeOn(stage, "ds-text");
        }
    }
}

TEST(ClusterTest, ShareNothingReflectsFabricCoupling)
{
    Cluster flat(2, PlacementPolicy::RoundRobin,
                 PlatformConfig{BootStrategy::CatalyzerWarm});
    EXPECT_TRUE(flat.shareNothing());

    net::FabricConfig remote_fork;
    remote_fork.modelTransfers = true;
    remote_fork.remoteFork = true;
    Cluster lending(2, PlacementPolicy::RoundRobin,
                    PlatformConfig{BootStrategy::CatalyzerWarm}, {},
                    sim::CostModel{}, 42, remote_fork);
    EXPECT_FALSE(lending.shareNothing());

    net::FabricConfig p2p;
    p2p.modelTransfers = true;
    p2p.p2pImages = true;
    Cluster streaming(2, PlacementPolicy::RoundRobin,
                      PlatformConfig{BootStrategy::CatalyzerWarm}, {},
                      sim::CostModel{}, 42, p2p);
    EXPECT_FALSE(streaming.shareNothing());
}

TEST(ClusterTest, AlignWindowOriginsLinesUpMachineSeries)
{
    Cluster cluster(2, PlacementPolicy::RoundRobin,
                    PlatformConfig{BootStrategy::CatalyzerAuto});
    cluster.deploy(apps::appByName("ds-text"));
    // Machine 0's clock runs ahead (priming asymmetry).
    cluster.invokeOn(0, "ds-text");
    cluster.invokeOn(0, "ds-text");
    ASSERT_NE(cluster.machine(0).ctx().clock().now(),
              cluster.machine(1).ctx().clock().now());

    cluster.alignWindowOrigins();
    cluster.invokeOn(0, "ds-text");
    cluster.invokeOn(1, "ds-text");
    // Both machines' win.e2e_ms series restarted at their aligned
    // origin: merged, the samples share run-relative window 0.
    sim::StatRegistry fleet;
    cluster.mergeStats(fleet);
    const sim::WindowedHistogram *w = fleet.findWindowed("win.e2e_ms");
    ASSERT_NE(w, nullptr);
    EXPECT_TRUE(w->originAligned());
    EXPECT_EQ(w->totalCount(), 2u);
    ASSERT_FALSE(w->windows().empty());
    EXPECT_EQ(w->windows().front().index, 0);
}

TEST(ClusterTest, EmptyClusterIsFatal)
{
    EXPECT_EXIT((Cluster{0, PlacementPolicy::RoundRobin}),
                ::testing::ExitedWithCode(1), "at least one machine");
}

TEST(ClusterTest, PolicyNames)
{
    EXPECT_STREQ(placementPolicyName(PlacementPolicy::LeastLoaded),
                 "least-loaded");
}

} // namespace
} // namespace catalyzer::platform
