/**
 * @file
 * Unit tests for the memory substrate: frames, page cache, address
 * spaces, COW and the Base/Private EPT overlay.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <vector>

#include "mem/address_space.h"
#include "mem/backing_file.h"
#include "mem/base_mapping.h"
#include "mem/frame_store.h"
#include "sim/context.h"

namespace catalyzer::mem {
namespace {

using sim::SimContext;

TEST(FrameStoreTest, AllocateRefUnref)
{
    FrameStore store;
    const FrameId f = store.allocate(FrameSource::Anonymous);
    EXPECT_NE(f, kInvalidFrame);
    EXPECT_EQ(store.refCount(f), 1u);
    store.ref(f);
    EXPECT_EQ(store.refCount(f), 2u);
    store.unref(f);
    store.unref(f);
    EXPECT_EQ(store.refCount(f), 0u);
    EXPECT_EQ(store.liveFrames(), 0u);
}

TEST(FrameStoreTest, IdsNeverReused)
{
    FrameStore store;
    const FrameId a = store.allocate(FrameSource::Anonymous);
    store.unref(a);
    const FrameId b = store.allocate(FrameSource::Anonymous);
    EXPECT_NE(a, b);
}

TEST(FrameStoreTest, DanglingOperationsPanic)
{
    FrameStore store;
    EXPECT_DEATH(store.ref(999), "not live");
    EXPECT_DEATH(store.unref(999), "not live");
}

TEST(BackingFileTest, PageCacheFillAndHit)
{
    SimContext ctx;
    FrameStore store;
    BackingFile file(store, "/img", 16);
    EXPECT_FALSE(file.resident(3));
    const FrameId f1 = file.frameFor(ctx, 3, false);
    EXPECT_TRUE(file.resident(3));
    const FrameId f2 = file.frameFor(ctx, 3, false);
    EXPECT_EQ(f1, f2);
    EXPECT_EQ(ctx.stats().value("mem.page_cache_hits"), 1);
    EXPECT_EQ(file.residentPages(), 1u);
}

TEST(BackingFileTest, EvictReleasesFrames)
{
    SimContext ctx;
    FrameStore store;
    BackingFile file(store, "/img", 8);
    file.frameFor(ctx, 0, false);
    file.frameFor(ctx, 1, false);
    EXPECT_EQ(store.liveFrames(), 2u);
    file.evict();
    EXPECT_EQ(store.liveFrames(), 0u);
}

TEST(BackingFileTest, EvictReleasesScrambledFillsAndKeepsMappedFrames)
{
    SimContext ctx;
    FrameStore store;
    BackingFile file(store, "/img", 16);
    // Fill in scrambled page order, with an anonymous frame allocated
    // midway so the page-cache frames form two runs of ids.
    const PageIndex pages[] = {9, 2, 14, 0, 7, 11, 5, 3, 12, 1};
    std::vector<FrameId> frames;
    FrameId anon = kInvalidFrame;
    for (std::size_t k = 0; k < std::size(pages); ++k) {
        if (k == 5)
            anon = store.allocate(FrameSource::Anonymous);
        frames.push_back(file.frameFor(ctx, pages[k], false));
    }
    // Every third frame is also mapped somewhere (refcount 2).
    std::size_t mapped = 0;
    for (std::size_t k = 0; k < frames.size(); k += 3) {
        store.ref(frames[k]);
        ++mapped;
    }
    EXPECT_EQ(store.liveFrames(), frames.size() + 1);

    file.evict();
    EXPECT_EQ(file.residentPages(), 0u);
    EXPECT_EQ(store.liveFrames(), mapped + 1);
    EXPECT_EQ(store.refCount(anon), 1u);
    for (std::size_t k = 0; k < frames.size(); ++k) {
        EXPECT_EQ(store.refCount(frames[k]), k % 3 == 0 ? 1u : 0u)
            << "frame of page " << pages[k];
    }
    for (std::size_t k = 0; k < frames.size(); k += 3)
        store.unref(frames[k]);
    EXPECT_EQ(store.liveFrames(), 1u);
}

TEST(BackingFileTest, BeyondEofPanics)
{
    SimContext ctx;
    FrameStore store;
    BackingFile file(store, "/img", 4);
    EXPECT_DEATH(file.frameFor(ctx, 4, false), "beyond EOF");
}

class AddressSpaceTest : public ::testing::Test
{
  protected:
    SimContext ctx;
    FrameStore store;
};

TEST_F(AddressSpaceTest, AnonDemandZero)
{
    AddressSpace space(ctx, store, "t");
    const PageIndex va = space.mapAnon(8, true, "heap");
    EXPECT_EQ(space.touch(va, false), FaultResult::MinorAnon);
    EXPECT_EQ(space.touch(va, false), FaultResult::None);
    EXPECT_EQ(space.privatePages(), 1u);
    EXPECT_EQ(ctx.stats().value("mem.minor_faults_anon"), 1);
}

TEST_F(AddressSpaceTest, UnmappedTouchPanics)
{
    AddressSpace space(ctx, store, "t");
    EXPECT_DEATH(space.touch(0x9999, false), "unmapped");
}

TEST_F(AddressSpaceTest, FilePrivateReadThenWriteCow)
{
    BackingFile file(store, "/bin", 8);
    AddressSpace space(ctx, store, "t");
    const PageIndex va =
        space.mapFile(file, 0, 8, MapKind::FilePrivate, true, "bin");
    EXPECT_EQ(space.touch(va, false), FaultResult::MinorFile);
    // Page-cache frame + mapping ref.
    EXPECT_EQ(space.touch(va, true), FaultResult::Cow);
    EXPECT_EQ(space.touch(va, true), FaultResult::None);
    EXPECT_EQ(ctx.stats().value("mem.cow_faults"), 1);
}

TEST_F(AddressSpaceTest, FilePrivateDirectWriteCowsImmediately)
{
    BackingFile file(store, "/bin", 4);
    AddressSpace space(ctx, store, "t");
    const PageIndex va =
        space.mapFile(file, 0, 4, MapKind::FilePrivate, true, "bin");
    EXPECT_EQ(space.touch(va + 1, true), FaultResult::Cow);
}

TEST_F(AddressSpaceTest, TouchRangeCountsFaults)
{
    AddressSpace space(ctx, store, "t");
    const PageIndex va = space.mapAnon(10, true, "heap");
    EXPECT_EQ(space.touchRange(va, 10, true), 10u);
    EXPECT_EQ(space.touchRange(va, 10, true), 0u);
}

TEST_F(AddressSpaceTest, UnmapReleasesFrames)
{
    AddressSpace space(ctx, store, "t");
    const PageIndex va = space.mapAnon(4, true, "heap");
    space.touchRange(va, 4, true);
    EXPECT_EQ(store.liveFrames(), 4u);
    space.unmap(va);
    EXPECT_EQ(store.liveFrames(), 0u);
    EXPECT_DEATH(space.touch(va, false), "unmapped");
}

TEST_F(AddressSpaceTest, ForkCowSharesThenCopies)
{
    AddressSpace parent(ctx, store, "parent");
    const PageIndex va = parent.mapAnon(4, true, "heap");
    parent.touchRange(va, 4, true);
    EXPECT_EQ(store.liveFrames(), 4u);

    auto child = parent.forkCow("child");
    // No copies yet: every frame shared.
    EXPECT_EQ(store.liveFrames(), 4u);
    EXPECT_EQ(child->privatePages(), 4u);

    // Child write copies one page.
    EXPECT_EQ(child->touch(va, true), FaultResult::Cow);
    EXPECT_EQ(store.liveFrames(), 5u);

    // Parent writing the same page: now sole owner, no copy needed.
    EXPECT_EQ(parent.touch(va, true), FaultResult::CowReuse);
    EXPECT_EQ(store.liveFrames(), 5u);
}

TEST_F(AddressSpaceTest, RssAndPssAccounting)
{
    AddressSpace a(ctx, store, "a");
    const PageIndex va = a.mapAnon(10, true, "heap");
    a.touchRange(va, 10, true);
    EXPECT_EQ(a.rssPages(), 10u);
    EXPECT_DOUBLE_EQ(a.pssBytes(), 10.0 * kPageSize);

    auto b = a.forkCow("b");
    // All pages shared two ways: PSS halves, RSS unchanged.
    EXPECT_EQ(a.rssPages(), 10u);
    EXPECT_EQ(b->rssPages(), 10u);
    EXPECT_DOUBLE_EQ(a.pssBytes(), 5.0 * kPageSize);
    EXPECT_DOUBLE_EQ(b->pssBytes(), 5.0 * kPageSize);
}

TEST_F(AddressSpaceTest, BaseMappingReadThroughAndCow)
{
    BackingFile image(store, "/func.img", 64);
    auto base = std::make_shared<BaseMapping>(store, image, 0, 64, "base");

    AddressSpace s1(ctx, store, "s1");
    const PageIndex va1 = s1.attachBase(base);
    // First read populates the base; second sandbox hits it for free.
    EXPECT_EQ(s1.touch(va1, false), FaultResult::BaseFill);
    EXPECT_EQ(s1.touch(va1, false), FaultResult::BaseHit);

    AddressSpace s2(ctx, store, "s2");
    const PageIndex va2 = s2.attachBase(base);
    EXPECT_EQ(s2.touch(va2, false), FaultResult::BaseHit);

    // Writes COW into the private EPT and never dirty the base.
    EXPECT_EQ(s2.touch(va2, true), FaultResult::BaseCow);
    EXPECT_EQ(s2.privatePages(), 1u);
    EXPECT_EQ(base->residentPages(), 1u);
    EXPECT_EQ(s1.touch(va1, false), FaultResult::BaseHit);
}

TEST_F(AddressSpaceTest, BasePssSplitsAcrossAttachments)
{
    BackingFile image(store, "/func.img", 16);
    auto base = std::make_shared<BaseMapping>(store, image, 0, 16, "base");

    AddressSpace s1(ctx, store, "s1");
    const PageIndex va1 = s1.attachBase(base);
    s1.touchRange(va1, 16, false);
    EXPECT_EQ(s1.rssPages(), 16u);
    EXPECT_DOUBLE_EQ(s1.pssBytes(), 16.0 * kPageSize);

    AddressSpace s2(ctx, store, "s2");
    s2.attachBase(base);
    EXPECT_DOUBLE_EQ(s1.pssBytes(), 8.0 * kPageSize);
    EXPECT_DOUBLE_EQ(s2.pssBytes(), 8.0 * kPageSize);
}

TEST_F(AddressSpaceTest, ForkCowPropagatesBaseAttachment)
{
    BackingFile image(store, "/func.img", 8);
    auto base = std::make_shared<BaseMapping>(store, image, 0, 8, "base");
    AddressSpace parent(ctx, store, "parent");
    const PageIndex va = parent.attachBase(base);
    parent.touch(va, false);

    auto child = parent.forkCow("child");
    EXPECT_EQ(base->attachCount(), 2u);
    EXPECT_EQ(child->touch(va, false), FaultResult::BaseHit);
    child.reset();
    EXPECT_EQ(base->attachCount(), 1u);
}

TEST_F(AddressSpaceTest, DoubleBaseAttachPanics)
{
    BackingFile image(store, "/func.img", 8);
    auto base = std::make_shared<BaseMapping>(store, image, 0, 8, "base");
    AddressSpace space(ctx, store, "s");
    space.attachBase(base);
    EXPECT_DEATH(space.attachBase(base), "already attached");
}

TEST(BaseMappingTest, PopulateAllAndDetachUnderflow)
{
    SimContext ctx;
    FrameStore store;
    BackingFile image(store, "/img", 8);
    BaseMapping base(store, image, 0, 8, "b");
    base.populateAll(ctx, false);
    EXPECT_EQ(base.residentPages(), 8u);
    EXPECT_DEATH(base.detach(), "no attachments");
}

TEST(MemTypesTest, PageConversions)
{
    EXPECT_EQ(pagesForBytes(0), 0u);
    EXPECT_EQ(pagesForBytes(1), 1u);
    EXPECT_EQ(pagesForBytes(kPageSize), 1u);
    EXPECT_EQ(pagesForBytes(kPageSize + 1), 2u);
    EXPECT_EQ(pagesForMiB(1), 256u);
    EXPECT_EQ(bytesForPages(2), 2 * kPageSize);
    EXPECT_EQ(pagesForKiB(4), 1u);
    EXPECT_EQ(pagesForKiB(5), 2u);
}

} // namespace
} // namespace catalyzer::mem
