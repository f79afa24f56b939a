/**
 * @file
 * Tests for the datacenter fabric: flat-compat equivalence, topology,
 * contention and the remote pager's batch accounting.
 */

#include <gtest/gtest.h>

#include "mem/address_space.h"
#include "net/fabric.h"
#include "net/remote_pager.h"
#include "sim/context.h"

namespace catalyzer::net {
namespace {

TEST(FabricTest, FlatCompatMatchesLegacyFormula)
{
    // With modelTransfers off (the default), a transfer charges exactly
    // the old flat networkFetchPerMiB * max(MiB, 1) — no RTT, no
    // counters, no contention — so the pre-fabric remoteImages path is
    // bit-identical.
    sim::SimContext ctx;
    Fabric fabric;
    const std::size_t bytes = 80u << 20; // 80 MiB
    const sim::SimTime before = ctx.now();
    Transfer t = fabric.transfer(ctx, kOriginStorage, 1, bytes, "image");
    const sim::SimTime charged = ctx.now() - before;
    EXPECT_EQ(charged, ctx.costs().networkFetchPerMiB * 80);
    EXPECT_EQ(t.total, charged);
    EXPECT_EQ(t.rtt, sim::SimTime{});
    EXPECT_EQ(ctx.stats().value("net.transfers"), 0);
    EXPECT_EQ(ctx.stats().value("net.bytes"), 0);
}

TEST(FabricTest, FlatCompatRoundsSubMiBUpToOne)
{
    sim::SimContext ctx;
    Fabric fabric;
    const sim::SimTime before = ctx.now();
    fabric.transfer(ctx, kOriginStorage, 0, 4096, "tiny");
    EXPECT_EQ(ctx.now() - before, ctx.costs().networkFetchPerMiB);
}

TEST(FabricTest, RackTopology)
{
    FabricConfig config;
    config.machinesPerRack = 4;
    Fabric fabric(config);
    EXPECT_TRUE(fabric.sameRack(0, 3));
    EXPECT_FALSE(fabric.sameRack(3, 4));
    EXPECT_TRUE(fabric.sameRack(4, 7));
    // Origin storage is always a cross-rack hop.
    EXPECT_FALSE(fabric.sameRack(0, kOriginStorage));

    sim::SimContext ctx;
    EXPECT_EQ(fabric.rtt(0, 3, ctx.costs()),
              ctx.costs().netRttIntraRack);
    EXPECT_EQ(fabric.rtt(0, 4, ctx.costs()),
              ctx.costs().netRttCrossRack);
    EXPECT_EQ(fabric.rtt(0, kOriginStorage, ctx.costs()),
              ctx.costs().netRttCrossRack);
}

TEST(FabricTest, ModeledTransferChargesRttPlusStreaming)
{
    FabricConfig config;
    config.modelTransfers = true;
    config.machinesPerRack = 8;
    Fabric fabric(config);
    sim::SimContext ctx;
    const std::size_t bytes = 20u << 20;
    const sim::SimTime before = ctx.now();
    Transfer t = fabric.transfer(ctx, 1, 2, bytes, "ws");
    EXPECT_EQ(t.rtt, ctx.costs().netRttIntraRack);
    EXPECT_EQ(t.streaming, fabric.streamCost(1, bytes, ctx.costs()));
    EXPECT_EQ(ctx.now() - before, t.rtt + t.streaming);
    EXPECT_EQ(ctx.stats().value("net.transfers"), 1);
    EXPECT_EQ(ctx.stats().value("net.bytes"),
              static_cast<std::int64_t>(bytes));
    EXPECT_EQ(ctx.stats().value("net.cross_rack_transfers"), 0);

    fabric.transfer(ctx, 1, 9, bytes, "ws"); // rack 0 -> rack 1
    EXPECT_EQ(ctx.stats().value("net.cross_rack_transfers"), 1);
}

TEST(FabricTest, OriginStreamsSlowerThanPeers)
{
    Fabric fabric;
    sim::SimContext ctx;
    const std::size_t bytes = 10u << 20;
    EXPECT_GT(fabric.streamCost(kOriginStorage, bytes, ctx.costs()),
              fabric.streamCost(1, bytes, ctx.costs()));
}

TEST(FabricTest, StreamLeaseDrivesContention)
{
    FabricConfig config;
    config.modelTransfers = true;
    Fabric fabric(config); // each other open stream slows by 0.5
    EXPECT_EQ(fabric.openStreams(3), 0u);
    EXPECT_DOUBLE_EQ(fabric.contentionFactor(3, 5), 1.0);
    {
        StreamLease a(fabric, 3);
        StreamLease b(fabric, 3);
        EXPECT_EQ(fabric.openStreams(3), 2u);
        EXPECT_DOUBLE_EQ(fabric.contentionFactor(3, 5), 2.0);
        // A holder discounts its own lease.
        EXPECT_DOUBLE_EQ(fabric.contentionFactor(3, 5, 1), 1.5);
        // Contention scales the streaming part of a transfer.
        sim::SimContext ctx;
        const std::size_t bytes = 8u << 20;
        Transfer t = fabric.transfer(ctx, 3, 5, bytes, "pull");
        EXPECT_DOUBLE_EQ(t.contention, 2.0);
        EXPECT_EQ(t.streaming,
                  fabric.streamCost(3, bytes, ctx.costs()) * 2.0);
    }
    // Leases release on destruction.
    EXPECT_EQ(fabric.openStreams(3), 0u);
    EXPECT_DOUBLE_EQ(fabric.contentionFactor(3, 5), 1.0);
}

TEST(RemotePagerTest, BatchedPullAccounting)
{
    FabricConfig config;
    config.modelTransfers = true;
    Fabric fabric(config);
    sim::SimContext ctx;
    RemotePager pager(ctx, fabric, /*self=*/0, /*peer=*/1,
                      /*window_start=*/100, /*window_pages=*/1000,
                      /*injector=*/nullptr, /*batch_pages=*/8);
    // The pager holds a long-lived stream on its lender.
    EXPECT_EQ(fabric.openStreams(1), 1u);

    // Base fills inside the window pull; COW faults and out-of-window
    // fills don't.
    pager.onFaultRange(100, 1, false, mem::FaultResult::BaseFill);
    EXPECT_EQ(pager.pagesPulled(), 1u);
    EXPECT_EQ(pager.batchesIssued(), 1u);
    pager.onFaultRange(101, 1, true, mem::FaultResult::BaseCow);
    pager.onFaultRange(5, 1, false, mem::FaultResult::BaseFill);
    EXPECT_EQ(pager.pagesPulled(), 1u);

    // 7 more pages ride the open batch; the 9th opens a second one.
    pager.onFaultRange(102, 7, false, mem::FaultResult::BaseFill);
    EXPECT_EQ(pager.pagesPulled(), 8u);
    EXPECT_EQ(pager.batchesIssued(), 1u);
    pager.onFaultRange(110, 1, false, mem::FaultResult::BaseFill);
    EXPECT_EQ(pager.batchesIssued(), 2u);

    EXPECT_EQ(ctx.stats().value("remote.page_pulls"), 9);
    EXPECT_EQ(ctx.stats().value("remote.pull_batches"), 2);
    EXPECT_GT(ctx.now(), sim::SimTime{});
}

TEST(RemotePagerTest, PeerDeathReroutesToOrigin)
{
    FabricConfig config;
    config.modelTransfers = true;
    Fabric fabric(config);
    sim::SimContext ctx;
    faults::FaultInjector injector;
    RemotePager pager(ctx, fabric, 0, 1, 0, 1000, &injector, 4);
    EXPECT_EQ(pager.source(), 1u);

    // The lender dies before the next batch: the pager degrades to
    // origin storage instead of throwing (we are inside invoke()).
    injector.failNext(faults::FaultSite::RemotePeerDeath);
    pager.onFaultRange(0, 1, false, mem::FaultResult::BaseFill);
    EXPECT_EQ(pager.source(), kOriginStorage);
    EXPECT_EQ(ctx.stats().value("remote.peer_lost"), 1);
    EXPECT_EQ(pager.pagesPulled(), 1u);

    // Once on origin, a second death has nothing left to kill.
    injector.failNext(faults::FaultSite::RemotePeerDeath);
    pager.onFaultRange(4, 4, false, mem::FaultResult::BaseFill);
    EXPECT_EQ(ctx.stats().value("remote.peer_lost"), 1);
    EXPECT_EQ(pager.pagesPulled(), 5u);
}

TEST(RemotePagerTest, LinkFaultRetriesSameSource)
{
    FabricConfig config;
    config.modelTransfers = true;
    Fabric fabric(config);
    sim::SimContext ctx;
    faults::FaultInjector injector;
    RemotePager pager(ctx, fabric, 0, 1, 0, 1000, &injector, 4);

    injector.failNext(faults::FaultSite::NetLink);
    const sim::SimTime before = ctx.now();
    pager.onFaultRange(0, 1, false, mem::FaultResult::BaseFill);
    EXPECT_EQ(pager.source(), 1u); // still the lender
    EXPECT_EQ(ctx.stats().value("net.link_retries"), 1);
    // The retry burned at least the attempt timeout on top of the pull.
    EXPECT_GT(ctx.now() - before, faults::kAttemptTimeout);
}

} // namespace
} // namespace catalyzer::net
