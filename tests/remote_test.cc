/**
 * @file
 * Tests for the distributed layer: the cluster-wide template registry
 * and the remote-sfork boot path end to end.
 */

#include <gtest/gtest.h>

#include "platform/cluster.h"
#include "remote/template_registry.h"

namespace catalyzer::remote {
namespace {

using platform::BootStrategy;
using platform::Cluster;
using platform::PlacementPolicy;
using platform::PlatformConfig;

net::FabricConfig
remoteForkFabric()
{
    net::FabricConfig config;
    config.modelTransfers = true;
    config.remoteFork = true;
    return config;
}

TEST(TemplateRegistryTest, NearestHolderPrefersSameRack)
{
    net::FabricConfig config;
    config.machinesPerRack = 4;
    net::Fabric fabric(config);
    TemplateRegistry registry(&fabric);

    registry.setTemplate(6, "f", true); // other rack
    EXPECT_EQ(registry.nearestTemplateHolder("f", 1), 6u);

    registry.setTemplate(2, "f", true); // same rack as 1
    EXPECT_EQ(registry.nearestTemplateHolder("f", 1), 2u);

    // A holder never lends to itself.
    EXPECT_EQ(registry.nearestTemplateHolder("f", 2), 6u);

    // Same-rack candidates break ties on the lowest id.
    registry.setTemplate(3, "f", true);
    EXPECT_EQ(registry.nearestTemplateHolder("f", 1), 2u);

    registry.setTemplate(2, "f", false);
    registry.setTemplate(3, "f", false);
    registry.setTemplate(6, "f", false);
    EXPECT_FALSE(registry.nearestTemplateHolder("f", 1).has_value());
}

TEST(TemplateRegistryTest, ReplicaDirectory)
{
    TemplateRegistry registry;
    EXPECT_FALSE(registry.nearestReplica("img", 0).has_value());
    registry.addReplica("img", 3);
    registry.addReplica("img", 7);
    EXPECT_EQ(registry.replicaCount("img"), 2u);
    EXPECT_EQ(registry.nearestReplica("img", 0), 3u);
    EXPECT_EQ(registry.nearestReplica("img", 3), 7u);
    registry.dropReplica("img", 3);
    EXPECT_EQ(registry.nearestReplica("img", 0), 7u);
}

/** A Catalyzer option set the remote-sfork boot is exercised under. */
struct RemoteForkOptions
{
    const char *name;
    bool useZygote = true;
    bool lazyIoReconnection = true;

    core::CatalyzerOptions
    options() const
    {
        core::CatalyzerOptions options;
        options.useZygote = useZygote;
        options.lazyIoReconnection = lazyIoReconnection;
        return options;
    }
};

/**
 * A borrower with no local template, base or image boots by remote
 * sfork from the peer that prepared one, under @p options.
 */
void
expectBorrowerForksFromPeerTemplate(const core::CatalyzerOptions &options)
{
    Cluster cluster(2, PlacementPolicy::RoundRobin,
                    PlatformConfig{BootStrategy::CatalyzerAuto}, options,
                    sim::CostModel{}, 42, remoteForkFabric());
    const apps::AppProfile &app = apps::appByName("python-django");
    cluster.deploy(app);
    // Only machine 0 prepares a template; prepare() publishes it into
    // the registry.
    cluster.platform(0).prepare(app);
    EXPECT_TRUE(cluster.registry().hasTemplate(0, "python-django"));
    EXPECT_FALSE(cluster.registry().hasTemplate(1, "python-django"));

    // Machine 1 has no template, no base, no image — but a peer does:
    // CatalyzerAuto takes the remote-sfork tier.
    auto record = cluster.platform(1).invoke("python-django");
    EXPECT_EQ(record.tierServed, "remote-sfork");
    EXPECT_EQ(record.tierFallbacks, 0);

    auto &stats = cluster.machine(1).ctx().stats();
    EXPECT_EQ(stats.value("remote.fork_hits"), 1);
    EXPECT_EQ(stats.value("catalyzer.remote_fork_boots"), 1);
    // The handshake and metadata stream crossed the fabric.
    EXPECT_GT(stats.value("net.transfers"), 0);
    EXPECT_GT(stats.value("net.bytes"), 0);
    // The lender machine was never charged.
    EXPECT_EQ(cluster.machine(0).ctx().stats().value("net.transfers"),
              0);

    // Without Zygotes the borrowed state lands in a sandbox constructed
    // on the path. Eager reconnection re-establishes the connections at
    // boot, so the first request finds none left to reconnect.
    if (!options.useZygote) {
        EXPECT_EQ(stats.value("catalyzer.zygote_hits") +
                      stats.value("catalyzer.zygote_misses"),
                  0);
    }
    if (!options.lazyIoReconnection) {
        EXPECT_GT(stats.value("snapshot.io_reconnects"), 0);
        EXPECT_EQ(stats.value("exec.startup_reconnects") +
                      stats.value("exec.lazy_reconnects"),
                  0);
    }
}

TEST(RemoteForkTest, BorrowerForksFromPeerTemplate)
{
    expectBorrowerForksFromPeerTemplate(core::CatalyzerOptions{});
}

/** Names the option set in test output and in the discovered test name. */
void
PrintTo(const RemoteForkOptions &options, std::ostream *os)
{
    *os << options.name;
}

class RemoteForkOptionsTest
    : public ::testing::TestWithParam<RemoteForkOptions>
{};

TEST_P(RemoteForkOptionsTest, BorrowerForksFromPeerTemplate)
{
    expectBorrowerForksFromPeerTemplate(GetParam().options());
}

INSTANTIATE_TEST_SUITE_P(
    OptionSets, RemoteForkOptionsTest,
    ::testing::Values(RemoteForkOptions{"NoZygote", /*useZygote=*/false},
                      RemoteForkOptions{"EagerIo", true,
                                        /*lazyIoReconnection=*/false}));

TEST(RemoteForkTest, SeparatedStateAblationApplies)
{
    // The borrower's fix-up honours the separated-state ablation like a
    // local restore: one-by-one deserialization on the boot path.
    const apps::AppProfile &app = apps::appByName("python-django");
    auto borrow = [&](const core::CatalyzerOptions &options) {
        Cluster cluster(2, PlacementPolicy::RoundRobin,
                        PlatformConfig{BootStrategy::CatalyzerAuto},
                        options, sim::CostModel{}, 42, remoteForkFabric());
        cluster.deploy(app);
        cluster.platform(0).prepare(app);
        auto record = cluster.platform(1).invoke(app.name);
        EXPECT_EQ(record.tierServed, "remote-sfork");
        return std::make_pair(
            record.endToEnd(),
            cluster.machine(1).ctx().stats().value(
                "restore.deserialized_objects"));
    };
    core::CatalyzerOptions ablated;
    ablated.separatedState = false;
    const auto [full_latency, full_objects] = borrow({});
    const auto [ablated_latency, ablated_objects] = borrow(ablated);
    EXPECT_EQ(full_objects, 0);
    EXPECT_GT(ablated_objects, 0);
    EXPECT_GT(ablated_latency, full_latency);
}

TEST(RemoteForkTest, DemandPullsCrossTheFabric)
{
    Cluster cluster(2, PlacementPolicy::RoundRobin,
                    PlatformConfig{BootStrategy::CatalyzerAuto}, {},
                    sim::CostModel{}, 42, remoteForkFabric());
    const apps::AppProfile &app = apps::appByName("python-django");
    cluster.deploy(app);
    cluster.platform(0).prepare(app);
    cluster.platform(1).invoke("python-django");

    auto &stats = cluster.machine(1).ctx().stats();
    // The first request touched pages beyond the prefetched metadata:
    // they were pulled remotely, in batches.
    EXPECT_GT(stats.value("remote.page_pulls"), 0);
    EXPECT_GT(stats.value("remote.pull_batches"), 0);
    // Batching means far fewer requests than pages.
    EXPECT_LT(stats.value("remote.pull_batches"),
              stats.value("remote.page_pulls"));

    // The retained instance keeps pulling on later requests (lifetime
    // pager, not a first-response window).
    const auto pulls = stats.value("remote.page_pulls");
    cluster.platform(1).invoke("python-django");
    EXPECT_GE(stats.value("remote.page_pulls"), pulls);
}

TEST(RemoteForkTest, RemoteSforkBeatsColdRestoreWithFetch)
{
    // The MITOSIS argument: forking from a peer and pulling pages on
    // demand beats shipping the whole image from origin and restoring.
    const apps::AppProfile &app = apps::appByName("python-django");

    Cluster remote(2, PlacementPolicy::RoundRobin,
                   PlatformConfig{BootStrategy::CatalyzerAuto}, {},
                   sim::CostModel{}, 42, remoteForkFabric());
    remote.deploy(app);
    remote.platform(0).prepare(app);
    auto &rctx = remote.machine(1).ctx();
    const sim::SimTime r0 = rctx.now();
    remote.platform(1).invoke(app.name);
    const sim::SimTime remote_cost = rctx.now() - r0;

    core::CatalyzerOptions fetch_options;
    fetch_options.remoteImages = true;
    net::FabricConfig modeled;
    modeled.modelTransfers = true;
    Cluster cold(2, PlacementPolicy::RoundRobin,
                 PlatformConfig{BootStrategy::CatalyzerCold},
                 fetch_options, sim::CostModel{}, 42, modeled);
    cold.deploy(app);
    auto &cctx = cold.machine(1).ctx();
    const sim::SimTime c0 = cctx.now();
    cold.platform(1).invoke(app.name);
    const sim::SimTime cold_cost = cctx.now() - c0;

    EXPECT_LT(remote_cost, cold_cost);
}

TEST(RemoteForkTest, PeerDeathAtHandshakeDegradesGracefully)
{
    Cluster cluster(2, PlacementPolicy::RoundRobin,
                    PlatformConfig{BootStrategy::CatalyzerAuto}, {},
                    sim::CostModel{}, 42, remoteForkFabric());
    const apps::AppProfile &app = apps::appByName("python-hello");
    cluster.deploy(app);
    cluster.platform(0).prepare(app);

    cluster.platform(1).catalyzer().faults().failNext(
        faults::FaultSite::RemotePeerDeath);
    auto record = cluster.platform(1).invoke("python-hello");
    // Degraded past the remote tier; the request still succeeded.
    EXPECT_NE(record.tierServed, "remote-sfork");
    EXPECT_GE(record.tierFallbacks, 1);
    auto &stats = cluster.machine(1).ctx().stats();
    EXPECT_EQ(stats.value("boot.fallback.remote-sfork_warm"), 1);
    EXPECT_EQ(stats.value("remote.fork_hits"), 0);
}

TEST(RemoteForkTest, SecondBorrowReusesTheMirror)
{
    PlatformConfig config{BootStrategy::CatalyzerAuto};
    config.retainInstances = false; // force a fresh boot per request
    Cluster cluster(2, PlacementPolicy::RoundRobin, config, {},
                    sim::CostModel{}, 42, remoteForkFabric());
    const apps::AppProfile &app = apps::appByName("python-hello");
    cluster.deploy(app);
    cluster.platform(0).prepare(app);

    cluster.platform(1).invoke("python-hello");
    auto &stats = cluster.machine(1).ctx().stats();
    const auto pulls_after_first = stats.value("remote.page_pulls");
    ASSERT_EQ(stats.value("remote.fork_hits"), 1);

    // The second borrowed instance shares the mirror Base-EPT: pages
    // already pulled stay local, so the second boot pulls fewer.
    cluster.platform(1).invoke("python-hello");
    EXPECT_EQ(stats.value("remote.fork_hits"), 2);
    EXPECT_LT(stats.value("remote.page_pulls") - pulls_after_first,
              pulls_after_first);
}

TEST(RemoteForkTest, SingleMachineChainIsUnchanged)
{
    // Without a remote env the tier_served histogram and the fallback
    // counter names are exactly the legacy four-tier chain.
    Cluster cluster(1, PlacementPolicy::RoundRobin,
                    PlatformConfig{BootStrategy::CatalyzerAuto});
    const apps::AppProfile &app = apps::appByName("c-hello");
    cluster.deploy(app);
    cluster.invoke("c-hello");
    auto &stats = cluster.machine(0).ctx().stats();
    const auto *tiers = stats.findHistogram("boot.tier_served");
    ASSERT_NE(tiers, nullptr);
    // CatalyzerAuto with no template and no base boots cold: legacy
    // encoded value 2.
    EXPECT_EQ(tiers->raw().back(), 2.0);
    EXPECT_EQ(stats.value("remote.fork_hits"), 0);
    EXPECT_EQ(stats.value("net.transfers"), 0);
}

} // namespace
} // namespace catalyzer::remote
