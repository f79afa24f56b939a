/**
 * @file
 * Unit + property tests for the object graph and its two checkpoint
 * formats. The round-trip properties are the correctness core of
 * separated state recovery.
 */

#include <gtest/gtest.h>

#include "objgraph/object_graph.h"
#include "objgraph/proto_codec.h"
#include "objgraph/separated_image.h"
#include "sim/rng.h"

namespace catalyzer::objgraph {
namespace {

TEST(ObjectGraphTest, AddAndLookup)
{
    ObjectGraph graph;
    const auto a = graph.addObject(ObjectKind::Task, 64, {});
    const auto b = graph.addObject(ObjectKind::Timer, 32, {a});
    EXPECT_EQ(graph.objectCount(), 2u);
    EXPECT_EQ(graph.object(b).refs.front(), a);
    EXPECT_EQ(graph.pointerCount(), 1u);
    EXPECT_EQ(graph.payloadBytes(), 96u);
    EXPECT_TRUE(graph.checkIntegrity());
}

TEST(ObjectGraphTest, ForwardRefPanics)
{
    ObjectGraph graph;
    EXPECT_DEATH(graph.addObject(ObjectKind::Task, 64, {1}), "ref");
    // The bulk constructor applies the same rule.
    EXPECT_DEATH(ObjectGraph({MetaObject{1, ObjectKind::Task, 64, {1}}}),
                 "ref");
}

TEST(ObjectGraphTest, BadIdPanics)
{
    ObjectGraph graph;
    EXPECT_DEATH(graph.object(1), "bad id");
    EXPECT_DEATH(graph.object(0), "bad id");
}

TEST(ObjectGraphTest, NullRefsAllowed)
{
    ObjectGraph graph;
    graph.addObject(ObjectKind::Misc, 16, {0, 0});
    EXPECT_EQ(graph.pointerCount(), 0u);
    EXPECT_TRUE(graph.checkIntegrity());
}

TEST(GraphSpecTest, ScaledToApproximatesTarget)
{
    for (std::size_t target : {500u, 5000u, 37838u}) {
        const GraphSpec spec = GraphSpec::scaledTo(target);
        const double ratio = static_cast<double>(spec.totalObjects()) /
                             static_cast<double>(target);
        EXPECT_NEAR(ratio, 1.0, 0.05) << "target " << target;
    }
}

TEST(GraphSpecTest, SynthesizeMatchesSpecCounts)
{
    sim::Rng rng(42);
    const GraphSpec spec = GraphSpec::scaledTo(5000);
    const ObjectGraph graph = ObjectGraph::synthesize(rng, spec);
    EXPECT_EQ(graph.objectCount(), spec.totalObjects());
    EXPECT_TRUE(graph.checkIntegrity());
    // Pointer-bearing fraction is respected within tolerance.
    std::size_t bearing = 0;
    for (const auto &obj : graph.objects())
        bearing += obj.refs.empty() ? 0 : 1;
    const double frac = static_cast<double>(bearing) /
                        static_cast<double>(graph.objectCount());
    EXPECT_NEAR(frac, spec.pointerBearingFraction, 0.03);
}

/**
 * A hand-built graph with null slots: objects whose refs are all null
 * (laid out with the pointer-free tail), mixed null/non-null slots, and
 * a pointer to the object at arena offset 0.
 */
ObjectGraph
graphWithNullSlots()
{
    ObjectGraph graph;
    const auto root = graph.addObject(ObjectKind::Task, 40, {});
    const auto hub = graph.addObject(ObjectKind::Mount, 300, {0, root});
    graph.addObject(ObjectKind::Timer, 24, {0, 0, 0});
    graph.addObject(ObjectKind::FdTableEntry, 700, {hub, 0, root, 0});
    graph.addObject(ObjectKind::Misc, 16, {0});
    graph.addObject(ObjectKind::SessionList, 64, {hub, hub});
    return graph;
}

TEST(ProtoImageTest, RoundTripIsIdentity)
{
    sim::Rng rng(7);
    const ObjectGraph graph =
        ObjectGraph::synthesize(rng, GraphSpec::scaledTo(2000));
    const ProtoImage image = ProtoImage::build(graph);
    EXPECT_EQ(image.objectCount(), graph.objectCount());
    EXPECT_LT(image.compressedBytes(), image.uncompressedBytes());
    EXPECT_TRUE(image.reconstruct() == graph);
}

TEST(SeparatedImageTest, RoundTripIsIdentity)
{
    sim::Rng rng(7);
    const ObjectGraph graph =
        ObjectGraph::synthesize(rng, GraphSpec::scaledTo(2000));
    const SeparatedImage image = SeparatedImage::build(graph);
    EXPECT_EQ(image.objectCount(), graph.objectCount());
    EXPECT_TRUE(image.reconstruct() == graph);

    const ObjectGraph nulls = graphWithNullSlots();
    EXPECT_TRUE(SeparatedImage::build(nulls).reconstruct() == nulls);
}

TEST(SeparatedImageTest, RelocCountMatchesPointerCount)
{
    sim::Rng rng(11);
    const ObjectGraph graph =
        ObjectGraph::synthesize(rng, GraphSpec::scaledTo(3000));
    const SeparatedImage image = SeparatedImage::build(graph);
    EXPECT_EQ(image.relocCount(), graph.pointerCount());
    EXPECT_EQ(image.relocTableBytes(),
              image.relocCount() * SeparatedImage::kRelocEntryBytes);
}

TEST(SeparatedImageTest, ClusteringKeepsPointerPagesCompact)
{
    sim::Rng rng(13);
    const ObjectGraph graph =
        ObjectGraph::synthesize(rng, GraphSpec::scaledTo(20000));
    const SeparatedImage image = SeparatedImage::build(graph);
    // Pointer-bearing objects are clustered at the front: the dirtied
    // pages must be far fewer than the whole arena.
    EXPECT_LT(image.pointerPages(), image.arenaPages() / 3);
    EXPECT_GT(image.pointerPages(), 0u);
    EXPECT_EQ(image.pointerPageList().size(), image.pointerPages());
    // Clustered => the dirty page list is a dense prefix of the arena.
    const auto pages = image.pointerPageList();
    EXPECT_LE(pages.back(), pages.size() + 1);
}

TEST(SeparatedImageTest, ArenaAccountsForEveryObject)
{
    sim::Rng rng(17);
    const ObjectGraph graph =
        ObjectGraph::synthesize(rng, GraphSpec::scaledTo(1000));
    const SeparatedImage image = SeparatedImage::build(graph);
    std::size_t min_bytes = 0;
    for (const auto &obj : graph.objects()) {
        min_bytes += SeparatedImage::kObjectHeaderBytes +
                     obj.payloadBytes +
                     obj.refs.size() * SeparatedImage::kPointerSlotBytes;
    }
    EXPECT_GE(image.arenaBytes(), min_bytes);
    // Alignment overhead is bounded (8 bytes per object).
    EXPECT_LE(image.arenaBytes(), min_bytes + 8 * graph.objectCount());
}

/** Property: both formats are lossless across sizes and seeds. */
class CodecRoundTrip
    : public ::testing::TestWithParam<std::tuple<std::uint64_t,
                                                 std::size_t>>
{};

TEST_P(CodecRoundTrip, BothFormatsLossless)
{
    const auto [seed, objects] = GetParam();
    sim::Rng rng(seed);
    const ObjectGraph graph =
        ObjectGraph::synthesize(rng, GraphSpec::scaledTo(objects));
    EXPECT_TRUE(ProtoImage::build(graph).reconstruct() == graph);
    EXPECT_TRUE(SeparatedImage::build(graph).reconstruct() == graph);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndSizes, CodecRoundTrip,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 5u, 8u, 13u),
                       ::testing::Values(50u, 500u, 5000u)));

/** Checks every separated image of @p graph must pass. */
void
expectArenaIsRealBytes(const ObjectGraph &graph)
{
    const SeparatedImage image = SeparatedImage::build(graph);
    // The arena is materialized, byte for byte.
    EXPECT_EQ(image.arena().size(), image.arenaBytes());
    // Pointer slots in the stored arena are zeroed (partially
    // deserialized): the bytes at every relocation site must be zero.
    for (const Reloc &reloc : image.relocs()) {
        for (std::size_t i = 0; i < SeparatedImage::kPointerSlotBytes;
             ++i) {
            EXPECT_EQ(image.arena()[reloc.slotOffset + i], 0u);
        }
    }
    // One relation table serves as the slot-ordered patch overlay.
    const auto &relocs = image.relocs();
    for (std::size_t i = 1; i < relocs.size(); ++i)
        EXPECT_LT(relocs[i - 1].slotOffset, relocs[i].slotOffset);
    const auto pages = image.pointerPageList();
    for (std::size_t i = 1; i < pages.size(); ++i)
        EXPECT_LT(pages[i - 1], pages[i]);
    EXPECT_EQ(image.relocCount(), graph.pointerCount());
    EXPECT_TRUE(image.reconstruct() == graph);
}

TEST(SeparatedImageTest, ArenaIsRealBytes)
{
    sim::Rng rng(3);
    expectArenaIsRealBytes(
        ObjectGraph::synthesize(rng, GraphSpec::scaledTo(300)));
    expectArenaIsRealBytes(graphWithNullSlots());
}

TEST(SeparatedImageTest, ByteCorruptionIsDetected)
{
    sim::Rng rng(5);
    const ObjectGraph graph =
        ObjectGraph::synthesize(rng, GraphSpec::scaledTo(200));
    SeparatedImage image = SeparatedImage::build(graph);
    // Flip a payload byte (headers start each object; payload follows).
    image.corruptByteForTesting(SeparatedImage::kObjectHeaderBytes + 1);
    EXPECT_DEATH(image.reconstruct(), "corruption");
}

TEST(SeparatedImageTest, HeaderCorruptionIsDetected)
{
    sim::Rng rng(5);
    const ObjectGraph graph =
        ObjectGraph::synthesize(rng, GraphSpec::scaledTo(200));
    const SeparatedImage pristine = SeparatedImage::build(graph);
    // Kind byte of the first object: the kind leaves the enum's range.
    {
        SeparatedImage image = pristine;
        image.corruptByteForTesting(8);
        EXPECT_DEATH(image.reconstruct(), "corruption.*kind");
    }
    // High byte of the first object's id: the id leaves 1..n.
    {
        SeparatedImage image = pristine;
        image.corruptByteForTesting(7);
        EXPECT_DEATH(image.reconstruct(), "corruption.*outside");
    }
    // Flipping the low id byte of object 1 (at arena offset 0) turns it
    // into 254, which object 254 then claims again. Payloads are empty,
    // so no payload check can fire first.
    {
        ObjectGraph flat;
        for (int i = 0; i < 254; ++i)
            flat.addObject(ObjectKind::Misc, 0, {});
        SeparatedImage image = SeparatedImage::build(flat);
        image.corruptByteForTesting(0);
        EXPECT_DEATH(image.reconstruct(), "corruption.*duplicate");
    }
    // The untouched image still decodes.
    EXPECT_TRUE(pristine.reconstruct() == graph);
}

TEST(ObjectKindTest, NamesAreStable)
{
    EXPECT_STREQ(objectKindName(ObjectKind::Task), "task");
    EXPECT_STREQ(objectKindName(ObjectKind::SessionList), "session_list");
}

} // namespace
} // namespace catalyzer::objgraph
