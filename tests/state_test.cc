/**
 * @file
 * Tests for shared COW state regions (src/state/): the
 * create/seal/attach/publish lifecycle, replica streaming and
 * residency accounting, staleness detection, fault bookkeeping and
 * eviction policy.
 */

#include <gtest/gtest.h>

#include "mem/address_space.h"
#include "mem/types.h"
#include "sandbox/machine.h"
#include "state/state_region.h"

namespace catalyzer::state {
namespace {

/** Two registered machines around a standalone (fabric-less) store. */
struct TwoNodeStore
{
    sandbox::Machine m0{42};
    sandbox::Machine m1{43};
    StateRegionStore store;

    TwoNodeStore()
    {
        store.addNode(0, m0.frames(), m0.ctx());
        store.addNode(1, m1.frames(), m1.ctx());
    }
};

TEST(StateRegionTest, LifecycleGuards)
{
    TwoNodeStore fixture;
    StateRegionStore &store = fixture.store;
    store.create("model", 16, 0);

    // Not attachable until sealed, and no double create/seal.
    EXPECT_DEATH(store.attach("model", 0), "unsealed");
    EXPECT_DEATH(store.create("model", 16, 0), "already exists");
    store.seal("model");
    EXPECT_DEATH(store.seal("model"), "already sealed");
    EXPECT_DEATH(store.attach("nope", 0), "unknown region");

    RegionAttachment handle = store.attach("model", 0);
    EXPECT_TRUE(handle.valid());
    EXPECT_EQ(handle.version(), 1u);
    EXPECT_EQ(handle.npages(), 16u);
    store.detach(handle);
    EXPECT_FALSE(handle.valid());
}

TEST(StateRegionTest, EnsureIsIdempotent)
{
    TwoNodeStore fixture;
    fixture.store.ensure("session", 8, 0);
    fixture.store.ensure("session", 8, 1); // no-op, still home 0
    EXPECT_EQ(fixture.store.regionCount(), 1u);
    RegionAttachment handle = fixture.store.attach("session", 0);
    EXPECT_EQ(handle.version(), 1u);
    fixture.store.detach(handle);
    EXPECT_EQ(fixture.store.holders("session"),
              std::vector<net::NodeId>{0});
}

TEST(StateRegionTest, AttachStreamsReplicaFromNearestHolder)
{
    TwoNodeStore fixture;
    StateRegionStore &store = fixture.store;
    store.ensure("dataset", 32, 0);

    // Home attach: no transfer, resident on 0 only.
    RegionAttachment local = store.attach("dataset", 0);
    EXPECT_EQ(fixture.m0.ctx().stats().value("state.transfers"), 0);
    EXPECT_EQ(store.residentBytesOn(1), 0u);

    // Remote attach streams the whole region to node 1 and pays
    // virtual time for it on the consumer.
    const sim::SimTime before = fixture.m1.ctx().now();
    RegionAttachment remote = store.attach("dataset", 1);
    EXPECT_GT(fixture.m1.ctx().now(), before);
    EXPECT_EQ(fixture.m1.ctx().stats().value("state.transfers"), 1);
    EXPECT_EQ(
        fixture.m1.ctx().stats().value("state.transfer_bytes"),
        static_cast<std::int64_t>(mem::bytesForPages(32)));
    EXPECT_EQ(store.residentBytesOn(1), mem::bytesForPages(32));
    EXPECT_EQ(store.holders("dataset"),
              (std::vector<net::NodeId>{0, 1}));

    // A second attach on the same node reuses the resident replica.
    RegionAttachment again = store.attach("dataset", 1);
    EXPECT_EQ(fixture.m1.ctx().stats().value("state.transfers"), 1);
    store.detach(local);
    store.detach(remote);
    store.detach(again);
}

TEST(StateRegionTest, PublishBumpsVersionAndStalesOtherReplicas)
{
    TwoNodeStore fixture;
    StateRegionStore &store = fixture.store;
    store.ensure("cart", 8, 0);

    RegionAttachment reader = store.attach("cart", 0);
    RegionAttachment writer = store.attach("cart", 1);
    EXPECT_EQ(reader.version(), 1u);

    const std::uint64_t current = store.publish("cart", 1, 3);
    EXPECT_EQ(current, 2u);

    // Every pre-publish attachment keeps a consistent snapshot but is
    // detectably stale — including the writer's own handle, which was
    // attached under version 1; the directory only lists the
    // publisher's machine as holding the current version.
    EXPECT_LT(reader.version(), current);
    EXPECT_LT(writer.version(), current);
    EXPECT_EQ(store.holders("cart"), std::vector<net::NodeId>{1});
    EXPECT_EQ(store.residentBytesOn(0), 0u);
    EXPECT_EQ(fixture.m1.ctx().stats().value("state.publishes"), 1);
    EXPECT_EQ(fixture.m1.ctx().stats().value("state.published_pages"),
              3);

    // Re-attaching on node 0 streams the new version over.
    store.detach(reader);
    RegionAttachment fresh = store.attach("cart", 0);
    EXPECT_EQ(fresh.version(), current);
    EXPECT_EQ(fixture.m0.ctx().stats().value("state.transfers"), 1);
    store.detach(fresh);
    store.detach(writer);
}

TEST(StateRegionTest, PublishWithoutCurrentReplicaDies)
{
    TwoNodeStore fixture;
    fixture.store.ensure("cart", 8, 0);
    EXPECT_DEATH(fixture.store.publish("cart", 1, 1),
                 "writers attach first");
}

TEST(StateRegionTest, CowFaultAccountingUnderBatchedTouch)
{
    TwoNodeStore fixture;
    StateRegionStore &store = fixture.store;
    store.ensure("scratch", 64, 0);

    RegionAttachment handle = store.attach("scratch", 0);
    RegionFaultStats faults(fixture.m0.ctx().stats());
    mem::AddressSpace space(fixture.m0.ctx(), fixture.m0.frames(),
                            "state-test");
    space.setFaultObserver(&faults);
    const mem::PageIndex va = space.attachBase(handle.base());

    // A batched read pass fills from the shared layer; a batched write
    // pass COWs every page. One observer extent may cover many pages —
    // the per-page counts must still be exact.
    space.touchRange(va, 64, /*write=*/false);
    EXPECT_EQ(faults.readFaults(), 64u);
    EXPECT_EQ(faults.cowFaults(), 0u);
    space.touchRange(va, 24, /*write=*/true);
    EXPECT_EQ(faults.cowFaults(), 24u);
    EXPECT_EQ(fixture.m0.ctx().stats().value("state.read_faults"), 64);
    EXPECT_EQ(fixture.m0.ctx().stats().value("state.cow_faults"), 24);
    EXPECT_EQ(space.privatePages(), 24u);
    store.detach(handle);
}

TEST(StateRegionTest, ResidencyGaugeTracksReplicaMoves)
{
    TwoNodeStore fixture;
    StateRegionStore &store = fixture.store;
    store.ensure("a", 8, 0);
    store.ensure("b", 8, 0);
    EXPECT_EQ(fixture.m0.ctx().stats().value("state.regions_resident"),
              2);

    RegionAttachment handle = store.attach("a", 1);
    EXPECT_EQ(fixture.m1.ctx().stats().value("state.regions_resident"),
              1);
    EXPECT_EQ(store.residentBytesOn(0), 2 * mem::bytesForPages(8));

    // Publishing from node 1 drops node 0's now-stale replica of "a".
    store.publish("a", 1, 1);
    EXPECT_EQ(fixture.m0.ctx().stats().value("state.regions_resident"),
              1);
    EXPECT_EQ(store.residentBytesOn(0), mem::bytesForPages(8));
    store.detach(handle);
}

} // namespace
} // namespace catalyzer::state
