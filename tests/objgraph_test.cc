/**
 * @file
 * Unit + property tests for the object graph and its two checkpoint
 * formats. The round-trip properties are the correctness core of
 * separated state recovery.
 */

#include <algorithm>
#include <iterator>
#include <map>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "objgraph/object_graph.h"
#include "objgraph/proto_codec.h"
#include "objgraph/separated_image.h"
#include "objgraph_testing.h"
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
    std::uint32_t payload = 0;
    for (const MetaObject &obj : graph.objects())
        payload += obj.payloadBytes;
    EXPECT_EQ(payload, 96u);
    EXPECT_TRUE(refsPointBackward(graph));
}

TEST(ObjectGraphTest, ForwardRefPanics)
{
    ObjectGraph graph;
    EXPECT_DEATH(graph.addObject(ObjectKind::Task, 64, {1}), "ref");
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
    EXPECT_TRUE(refsPointBackward(graph));
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
    EXPECT_TRUE(refsPointBackward(graph));
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
    EXPECT_TRUE(sameGraph(image.reconstruct(), deepCopy(graph)));
}

TEST(SeparatedImageTest, RoundTripIsIdentity)
{
    sim::Rng rng(7);
    const ObjectGraph graph =
        ObjectGraph::synthesize(rng, GraphSpec::scaledTo(2000));
    const SeparatedImage image = SeparatedImage::build(graph);
    EXPECT_EQ(image.objectCount(), graph.objectCount());
    EXPECT_TRUE(sameGraph(image.reconstruct(), deepCopy(graph)));

    const ObjectGraph nulls = graphWithNullSlots();
    EXPECT_TRUE(sameGraph(SeparatedImage::build(nulls).reconstruct(),
                          deepCopy(nulls)));
}

TEST(SeparatedImageTest, ReconstructSharesTheCheckpointedStorage)
{
    const ObjectGraph graph = graphWithNullSlots();
    const ObjectGraph copy = deepCopy(graph);
    const SeparatedImage image = SeparatedImage::build(graph);
    const ObjectGraph restored = image.reconstruct();
    // Refs are views into the graph's one ref array: equal addresses
    // mean one storage block, and a deep copy has its own.
    EXPECT_EQ(restored.object(2).refs.data(), graph.object(2).refs.data());
    EXPECT_NE(copy.object(2).refs.data(), graph.object(2).refs.data());
    EXPECT_EQ(image.reconstruct().object(6).refs.data(),
              graph.object(6).refs.data());
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
    const auto &pages = image.pointerPageList();
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
    const ObjectGraph copy = deepCopy(graph);
    EXPECT_TRUE(sameGraph(ProtoImage::build(graph).reconstruct(), copy));
    EXPECT_TRUE(sameGraph(SeparatedImage::build(graph).reconstruct(), copy));
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
    const auto &pages = image.pointerPageList();
    for (std::size_t i = 1; i < pages.size(); ++i)
        EXPECT_LT(pages[i - 1], pages[i]);
    EXPECT_EQ(image.relocCount(), graph.pointerCount());
    EXPECT_TRUE(sameGraph(image.reconstruct(), deepCopy(graph)));
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
    EXPECT_TRUE(sameGraph(pristine.reconstruct(), deepCopy(graph)));
}

TEST(SeparatedImageTest, HeaderLayoutIsPinned)
{
    // 299 empty objects, then object 300 (0x012c) with 258 (0x0102)
    // slots and a 66,051-byte (0x010203) payload. It is the only
    // pointer-bearing object, so it sits at arena offset 0.
    ObjectGraph graph;
    for (int i = 0; i < 299; ++i)
        graph.addObject(ObjectKind::Misc, 0, {});
    const std::vector<std::uint64_t> refs(258, 1);
    ASSERT_EQ(graph.addObject(ObjectKind::Timer, 0x010203, refs), 300u);
    const SeparatedImage image = SeparatedImage::build(graph);
    const std::vector<std::uint8_t> &arena = image.arena();

    const std::uint8_t want[SeparatedImage::kObjectHeaderBytes] = {
        0x2c, 0x01, 0, 0, 0, 0, 0, 0, // id, little-endian u64
        3,                            // kind: Timer
        0x02, 0x01,                   // slot count, little-endian u16
        0,                            // reserved
        0x03, 0x02, 0x01, 0x00,       // payload length, little-endian u32
    };
    for (std::size_t i = 0; i < sizeof want; ++i)
        EXPECT_EQ(arena[i], want[i]) << "header byte " << i;
    // The payload fill starts at (id * 31) & 0xff = 84 and ramps.
    EXPECT_EQ(arena[16], 84u);
    EXPECT_EQ(arena[16 + 171], 255u);
    EXPECT_EQ(arena[16 + 172], 0u);
    // Object 1 follows: payload padded to 66,056 bytes, then 258 slots.
    const std::size_t next = 16 + 66056 + 258 * 8;
    const std::uint8_t want1[SeparatedImage::kObjectHeaderBytes] = {
        1, 0, 0, 0, 0, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0};
    for (std::size_t i = 0; i < sizeof want1; ++i)
        EXPECT_EQ(arena[next + i], want1[i]) << "header byte " << i;
    EXPECT_EQ(image.relocs().front().slotOffset, 16u + 66056u);
    EXPECT_EQ(image.relocs().front().targetOffset, next);
}

//
// Model-based check of the in-place verifier. The model is a
// materializing decoder: it rebuilds every object from the arena, reads
// patched slots through the relation table, and resolves target
// offsets to ids. It reads header fields byte by byte, independently of
// the image's own helpers, and reports a failure wherever it cannot
// decode (a bad header, payload byte or target offset).
//
struct ModelObject
{
    std::uint64_t id = 0;
    ObjectKind kind = ObjectKind::Misc;
    std::uint32_t payloadBytes = 0;
    std::vector<std::uint64_t> refs;
};

std::uint64_t
readLe(const std::vector<std::uint8_t> &buf, std::uint64_t off, int bytes)
{
    std::uint64_t v = 0;
    for (int i = 0; i < bytes; ++i)
        v |= static_cast<std::uint64_t>(buf[off + static_cast<unsigned>(i)])
             << (8 * i);
    return v;
}

std::uint64_t
align8(std::uint64_t v)
{
    return (v + 7) & ~std::uint64_t{7};
}

/** (arena offset, id) of every object, from a pristine image. */
std::map<std::uint64_t, std::uint64_t>
offsetToId(const SeparatedImage &pristine)
{
    std::map<std::uint64_t, std::uint64_t> out;
    const auto &arena = pristine.arena();
    for (std::uint64_t cursor = 0; cursor < arena.size();) {
        out[cursor] = readLe(arena, cursor, 8);
        cursor += SeparatedImage::kObjectHeaderBytes +
                  align8(readLe(arena, cursor + 12, 4)) +
                  readLe(arena, cursor + 9, 2) *
                      SeparatedImage::kPointerSlotBytes;
    }
    return out;
}

std::optional<std::vector<ModelObject>>
modelDecode(const SeparatedImage &image,
            const std::map<std::uint64_t, std::uint64_t> &offset_to_id)
{
    const auto &arena = image.arena();
    const auto &relocs = image.relocs();
    const std::size_t n = image.objectCount();
    std::vector<ModelObject> objects(n);
    auto reloc = relocs.begin();
    std::size_t placed = 0;
    std::uint64_t cursor = 0;
    while (cursor < arena.size()) {
        if (cursor + SeparatedImage::kObjectHeaderBytes > arena.size())
            return std::nullopt;
        const std::uint64_t id = readLe(arena, cursor, 8);
        const std::uint64_t kind = arena[cursor + 8];
        const std::uint64_t slots = readLe(arena, cursor + 9, 2);
        const std::uint64_t payload = readLe(arena, cursor + 12, 4);
        if (id == 0 || id > n ||
            kind > static_cast<std::uint8_t>(ObjectKind::Misc))
            return std::nullopt;
        ModelObject &obj = objects[id - 1];
        if (obj.id != 0)
            return std::nullopt; // duplicate
        const std::uint64_t slot_base =
            cursor + SeparatedImage::kObjectHeaderBytes + align8(payload);
        const std::uint64_t end =
            slot_base + slots * SeparatedImage::kPointerSlotBytes;
        if (end > arena.size())
            return std::nullopt;
        for (std::uint64_t i = 0; i < payload; ++i) {
            if (arena[cursor + SeparatedImage::kObjectHeaderBytes + i] !=
                static_cast<std::uint8_t>(id * 31 + i))
                return std::nullopt;
        }
        obj.id = id;
        obj.kind = static_cast<ObjectKind>(kind);
        obj.payloadBytes = static_cast<std::uint32_t>(payload);
        obj.refs.assign(slots, 0);
        for (std::uint64_t s = 0; s < slots; ++s) {
            const std::uint64_t off =
                slot_base + s * SeparatedImage::kPointerSlotBytes;
            while (reloc != relocs.end() && reloc->slotOffset < off)
                ++reloc;
            const std::uint64_t raw =
                reloc != relocs.end() && reloc->slotOffset == off
                    ? reloc->targetOffset + 1
                    : readLe(arena, off, 8);
            if (raw == 0)
                continue;
            const auto it = offset_to_id.find(raw - 1);
            if (it == offset_to_id.end())
                return std::nullopt; // dangling target offset
            obj.refs[s] = it->second;
        }
        cursor = end;
        ++placed;
    }
    if (placed != n)
        return std::nullopt;
    return objects;
}

bool
sameObjects(const std::vector<ModelObject> &model, const ObjectGraph &graph)
{
    if (model.size() != graph.objectCount())
        return false;
    for (const MetaObject &obj : graph.objects()) {
        const ModelObject &m = model[obj.id - 1];
        if (m.id != obj.id || m.kind != obj.kind ||
            m.payloadBytes != obj.payloadBytes ||
            !std::equal(m.refs.begin(), m.refs.end(), obj.refs.begin(),
                        obj.refs.end()))
            return false;
    }
    return true;
}

/** The model's output as a graph; the model must have succeeded. */
ObjectGraph
modelGraph(const std::vector<ModelObject> &model)
{
    ObjectGraph graph;
    for (const ModelObject &obj : model)
        graph.addObject(obj.kind, obj.payloadBytes, obj.refs);
    return graph;
}

/**
 * Random graphs beyond what synthesize() draws: payloads at the chunk
 * and ramp-period edges, null slots, and objects with 300+ slots.
 */
ObjectGraph
randomGraph(sim::Rng &rng, std::size_t objects, double density)
{
    static constexpr std::uint32_t kPayloads[] = {0,   1,   7,   8,   15,
                                                  16,  255, 256, 257, 4096};
    ObjectGraph graph;
    std::vector<std::uint64_t> refs;
    for (std::uint64_t id = 1; id <= objects; ++id) {
        const auto kind = static_cast<ObjectKind>(rng.uniformInt(8));
        const std::uint32_t payload =
            kPayloads[rng.uniformInt(std::size(kPayloads))];
        refs.clear();
        if (id > 1 && rng.chance(density)) {
            const std::uint64_t slots = rng.chance(0.02)
                                            ? 300 + rng.uniformInt(40)
                                            : 1 + rng.uniformInt(6);
            for (std::uint64_t s = 0; s < slots; ++s)
                refs.push_back(rng.chance(0.25)
                                   ? 0
                                   : 1 + rng.uniformInt(id - 1));
        } else if (rng.chance(0.05)) {
            refs.assign(1 + rng.uniformInt(3), 0); // only null slots
        }
        graph.addObject(kind, payload, refs);
    }
    return graph;
}

TEST(SeparatedImageModelTest, VerifierMatchesTheMaterializingDecoder)
{
    sim::Rng rng(2020);
    for (const std::size_t objects : {0u, 1u, 2u, 17u, 300u, 5000u}) {
        for (const double density : {0.0, 0.13, 0.5, 1.0}) {
            const ObjectGraph graph = randomGraph(rng, objects, density);
            const ObjectGraph copy = deepCopy(graph);
            const SeparatedImage image = SeparatedImage::build(graph);
            const auto model = modelDecode(image, offsetToId(image));
            ASSERT_TRUE(model.has_value())
                << objects << " objects, density " << density;
            EXPECT_TRUE(sameObjects(*model, copy));
            const ObjectGraph restored = image.reconstruct();
            EXPECT_TRUE(sameGraph(restored, copy));
            EXPECT_TRUE(sameGraph(restored, modelGraph(*model)));
            EXPECT_EQ(image.relocCount(), copy.pointerCount());
        }
    }
}

/** The byte classes of one object, plus a relation-table entry. */
enum class ByteClass
{
    Id,
    Kind,
    SlotCount,
    PayloadLength,
    PayloadBody,
    Padding,
    Slot,
    RelocTarget,
};

/**
 * Corrupt one byte of @p cls in a random object of @p image (or one
 * relation-table entry); false when no object has such a byte.
 */
bool
corruptOne(sim::Rng &rng, const std::map<std::uint64_t, std::uint64_t> &offsets,
           SeparatedImage &image, ByteClass cls)
{
    if (cls == ByteClass::RelocTarget) {
        if (image.relocCount() == 0)
            return false;
        image.corruptRelocForTesting(rng.uniformInt(image.relocCount()));
        return true;
    }
    std::vector<std::uint64_t> bases;
    for (const auto &[base, id] : offsets)
        bases.push_back(base);
    if (bases.empty())
        return false;
    // Start at a random object and take the first that has the class.
    const std::size_t start = rng.uniformInt(bases.size());
    for (std::size_t k = 0; k < bases.size(); ++k) {
        const std::uint64_t base = bases[(start + k) % bases.size()];
        const auto &arena = image.arena();
        const std::uint64_t slots = readLe(arena, base + 9, 2);
        const std::uint64_t payload = readLe(arena, base + 12, 4);
        const std::uint64_t body = base + SeparatedImage::kObjectHeaderBytes;
        std::uint64_t lo = 0, len = 0;
        switch (cls) {
          case ByteClass::Id: lo = base, len = 8; break;
          case ByteClass::Kind: lo = base + 8, len = 1; break;
          case ByteClass::SlotCount: lo = base + 9, len = 2; break;
          case ByteClass::PayloadLength: lo = base + 12, len = 4; break;
          case ByteClass::PayloadBody: lo = body, len = payload; break;
          case ByteClass::Padding:
            lo = body + payload, len = align8(payload) - payload;
            break;
          case ByteClass::Slot:
            lo = body + align8(payload);
            len = slots * SeparatedImage::kPointerSlotBytes;
            break;
          case ByteClass::RelocTarget: break;
        }
        if (len == 0)
            continue;
        // Single-bit rot half the time, else any pattern: either way a
        // kind or id can land on another valid value.
        const auto mask = static_cast<std::uint8_t>(
            rng.chance(0.5) ? 1u << rng.uniformInt(8)
                            : 1 + rng.uniformInt(255));
        image.corruptByteForTesting(lo + rng.uniformInt(len), mask);
        return true;
    }
    return false;
}

TEST(SeparatedImageModelTest, VerifierCatchesWhatTheDecoderCatches)
{
    const ByteClass classes[] = {
        ByteClass::Id,          ByteClass::Kind,
        ByteClass::SlotCount,   ByteClass::PayloadLength,
        ByteClass::PayloadBody, ByteClass::Padding,
        ByteClass::Slot,        ByteClass::RelocTarget,
    };
    sim::Rng rng(77);
    std::size_t panics = 0, clean = 0;
    for (const std::size_t objects : {1u, 40u, 300u}) {
        for (const double density : {0.13, 1.0}) {
            const ObjectGraph graph = randomGraph(rng, objects, density);
            const ObjectGraph copy = deepCopy(graph);
            const SeparatedImage pristine = SeparatedImage::build(graph);
            const auto offsets = offsetToId(pristine);
            for (int trial = 0; trial < 4 * std::ssize(classes); ++trial) {
                const ByteClass cls = classes[trial % std::ssize(classes)];
                SeparatedImage image = pristine;
                if (!corruptOne(rng, offsets, image, cls))
                    continue;
                const auto model = modelDecode(image, offsets);
                const auto where = ::testing::Message()
                                   << objects << " objects, density "
                                   << density << ", class "
                                   << static_cast<int>(cls);
                if (!model || !sameObjects(*model, copy)) {
                    ++panics;
                    EXPECT_DEATH(image.reconstruct(), "corruption") << where;
                } else {
                    ++clean;
                    EXPECT_TRUE(sameGraph(image.reconstruct(), copy))
                        << where;
                }
            }
        }
    }
    // Both outcomes occur: padding is never read, headers always are.
    EXPECT_GT(panics, 20u);
    EXPECT_GT(clean, 0u);
}

TEST(ObjectKindTest, NamesAreStable)
{
    EXPECT_STREQ(objectKindName(ObjectKind::Task), "task");
    EXPECT_STREQ(objectKindName(ObjectKind::SessionList), "session_list");
}

} // namespace
} // namespace catalyzer::objgraph
