#include "objgraph/separated_image.h"

#include <algorithm>
#include <array>
#include <cstring>

#include "mem/types.h"
#include "sim/logging.h"

namespace catalyzer::objgraph {

namespace {

constexpr std::uint64_t
align8(std::uint64_t v)
{
    return (v + 7) & ~std::uint64_t{7};
}

/** Arena bytes occupied by one object. */
std::uint64_t
slotBytesFor(std::uint32_t payload, std::size_t slots)
{
    return SeparatedImage::kObjectHeaderBytes + align8(payload) +
           slots * SeparatedImage::kPointerSlotBytes;
}

/** Byte offset of pointer slot @p slot within an object at @p base. */
std::uint64_t
slotOffsetFor(std::uint64_t base, std::uint32_t payload, std::size_t slot)
{
    return base + SeparatedImage::kObjectHeaderBytes + align8(payload) +
           slot * SeparatedImage::kPointerSlotBytes;
}

void
writeU64(std::vector<std::uint8_t> &buf, std::uint64_t off,
         std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        buf[off + static_cast<std::uint64_t>(i)] =
            static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint64_t
readU64(const std::vector<std::uint8_t> &buf, std::uint64_t off)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(buf[off +
                                            static_cast<std::uint64_t>(i)])
             << (8 * i);
    return v;
}

void
writeU32(std::vector<std::uint8_t> &buf, std::uint64_t off,
         std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        buf[off + static_cast<std::uint64_t>(i)] =
            static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint32_t
readU32(const std::vector<std::uint8_t> &buf, std::uint64_t off)
{
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(buf[off +
                                            static_cast<std::uint64_t>(i)])
             << (8 * i);
    return v;
}

/**
 * Deterministic payload fill so decode can verify integrity: byte i of
 * object @p id's payload is (id * 31 + i) & 0xff. Any 256-byte block
 * of a payload that starts at a multiple of 256 is therefore the slice
 * of this two-period ramp that starts at (id * 31) & 0xff.
 */
constexpr std::size_t kRampPeriod = 256;
constexpr std::array<std::uint8_t, 2 * kRampPeriod> kRamp = [] {
    std::array<std::uint8_t, 2 * kRampPeriod> ramp{};
    for (std::size_t i = 0; i < ramp.size(); ++i)
        ramp[i] = static_cast<std::uint8_t>(i & 0xff);
    return ramp;
}();

const std::uint8_t *
rampFor(std::uint64_t id)
{
    return kRamp.data() + ((id * 31) & 0xff);
}

void
fillPayload(std::uint8_t *dst, std::uint64_t id, std::uint32_t bytes)
{
    const std::uint8_t *ramp = rampFor(id);
    for (std::uint32_t i = 0; i < bytes; i += kRampPeriod)
        std::memcpy(dst + i, ramp,
                    std::min<std::size_t>(kRampPeriod, bytes - i));
}

/** Index of the first payload byte off the fill, or @p bytes if none. */
std::uint32_t
firstPayloadMismatch(const std::uint8_t *src, std::uint64_t id,
                     std::uint32_t bytes)
{
    const std::uint8_t *ramp = rampFor(id);
    for (std::uint32_t i = 0; i < bytes; i += kRampPeriod) {
        const std::size_t len =
            std::min<std::size_t>(kRampPeriod, bytes - i);
        if (std::memcmp(src + i, ramp, len) == 0)
            continue;
        std::uint32_t j = 0;
        while (src[i + j] == ramp[j])
            ++j;
        return i + j;
    }
    return bytes;
}

bool
hasPointer(const MetaObject &obj)
{
    return std::any_of(obj.refs.begin(), obj.refs.end(),
                       [](std::uint64_t r) { return r != 0; });
}

} // namespace

SeparatedImage
SeparatedImage::build(const ObjectGraph &graph)
{
    SeparatedImage image;
    const auto &objects = graph.objects();
    const std::size_t n = objects.size();
    image.object_count_ = n;

    // Cluster pointer-bearing objects at the front of the arena so that
    // stage-2 patching dirties a compact page range. Ids are dense
    // (1..n in vector order), so offsets are indexed by id. Offsets are
    // handed out by an ascending cursor, so offset_to_id_ comes out
    // sorted.
    std::vector<bool> bearing(n);
    for (std::size_t i = 0; i < n; ++i)
        bearing[i] = hasPointer(objects[i]);
    std::vector<std::uint64_t> offset_of(n + 1);
    image.offset_to_id_.reserve(n);
    std::uint64_t cursor = 0;
    for (const bool pointer_pass : {true, false}) {
        for (std::size_t i = 0; i < n; ++i) {
            if (bearing[i] != pointer_pass)
                continue;
            const MetaObject &obj = objects[i];
            offset_of[i + 1] = cursor;
            image.offset_to_id_.emplace_back(cursor, obj.id);
            cursor += slotBytesFor(obj.payloadBytes, obj.refs.size());
        }
    }
    image.arena_bytes_ = cursor;

    //
    // Materialize the arena: packed 16-byte headers (id u64, kind u8,
    // slots u16, payload u32), a deterministic payload fill, and zeroed
    // pointer slots. The relation table records where every non-null
    // pointer lives and what arena offset it must resolve to. Walking
    // objects in id order visits the clustered pointer-bearing prefix in
    // arena order, so relocations — and the pages they dirty — are
    // emitted in ascending slot order; each one is validated here, once.
    //
    std::vector<std::uint8_t> &arena = *image.arena_;
    arena.assign(image.arena_bytes_, 0);
    for (std::size_t i = 0; i < n; ++i) {
        const MetaObject &obj = objects[i];
        const std::uint64_t base = offset_of[i + 1];
        writeU64(arena, base, obj.id);
        arena[base + 8] = static_cast<std::uint8_t>(obj.kind);
        arena[base + 9] =
            static_cast<std::uint8_t>(obj.refs.size() & 0xff);
        arena[base + 10] =
            static_cast<std::uint8_t>((obj.refs.size() >> 8) & 0xff);
        writeU32(arena, base + 12, obj.payloadBytes);
        fillPayload(arena.data() + base + kObjectHeaderBytes, obj.id,
                    obj.payloadBytes);

        for (std::size_t slot = 0; slot < obj.refs.size(); ++slot) {
            const std::uint64_t target = obj.refs[slot];
            if (target == 0)
                continue; // null stays null; no relocation needed
            if (target > n)
                sim::panic("SeparatedImage: dangling ref %llu",
                           static_cast<unsigned long long>(target));
            const Reloc reloc{slotOffsetFor(base, obj.payloadBytes, slot),
                              offset_of[target]};
            if (reloc.slotOffset + kPointerSlotBytes > arena.size())
                sim::panic("SeparatedImage: slot offset beyond arena");
            if (!image.relocs_.empty() &&
                reloc.slotOffset <= image.relocs_.back().slotOffset)
                sim::panic("SeparatedImage: relocs out of slot order");
            image.relocs_.push_back(reloc);
            const std::uint64_t page = reloc.slotOffset / mem::kPageSize;
            if (image.pointer_pages_.empty() ||
                image.pointer_pages_.back() != page)
                image.pointer_pages_.push_back(page);
        }
    }
    return image;
}

ObjectGraph
SeparatedImage::reconstruct(trace::TraceContext trace) const
{
    //
    // Stage-1: the arena is mapped as-is. It is immutable and shared by
    // every instance; nothing is copied here.
    //
    {
        trace::ScopedSpan span(trace, "arena-map");
        span.attr("arena_bytes",
                  static_cast<std::int64_t>(arena_bytes_));
    }

    //
    // Stage-2: apply the relation table — each entry resolves a pointer
    // slot to its target's arena offset. Entries are independent; the
    // real system patches them from parallel workers, COWing only the
    // pages that hold slots. Here the patches stay in relocs_ (in slot
    // order, bounds-checked at build time) and the decode reads slot
    // values through it, so no per-instance arena copy exists at all.
    //
    {
        trace::ScopedSpan span(trace, "relation-fixup");
        span.attr("relocs", static_cast<std::int64_t>(relocs_.size()));
        span.attr("pointer_pages",
                  static_cast<std::int64_t>(pointerPages()));
    }

    trace::ScopedSpan decode_span(trace, "arena-decode");
    decode_span.attr("objects", static_cast<std::int64_t>(object_count_));

    // The decode is a pure function of the immutable arena, so its
    // result is computed and verified once; every later boot receives a
    // copy-on-write alias of the same graph.
    if (!decoded_valid_) {
        decoded_ = decode();
        decoded_valid_ = true;
    }
    return decoded_;
}

ObjectGraph
SeparatedImage::decode() const
{
    const std::vector<std::uint8_t> &arena = *arena_;
    const std::size_t n = object_count_;

    //
    // One forward scan of the packed objects. Headers and payloads are
    // verified against the checkpoint; each slot's patched value comes
    // from the relation-table entry at that offset (a cursor that only
    // moves forward, as the scan does) or, for null slots, from the
    // pristine zeroed arena. Patched values are target offset + 1, so a
    // pointer to the object at arena offset 0 stays distinguishable
    // from null; they resolve to ids through offset_to_id_. Each object
    // lands at its id's index.
    //
    std::vector<MetaObject> objects(n);
    auto reloc = relocs_.begin();
    std::size_t placed = 0;
    std::uint64_t cursor = 0;
    while (cursor < arena.size()) {
        if (cursor + kObjectHeaderBytes > arena.size())
            sim::panic("SeparatedImage: header corruption: header at "
                       "%llu overruns the arena (%zu bytes)",
                       static_cast<unsigned long long>(cursor),
                       arena.size());
        const std::uint64_t id = readU64(arena, cursor);
        const std::uint8_t kind = arena[cursor + 8];
        const std::uint16_t slots = static_cast<std::uint16_t>(
            arena[cursor + 9] |
            (static_cast<std::uint16_t>(arena[cursor + 10]) << 8));
        const std::uint32_t payload = readU32(arena, cursor + 12);
        if (id == 0 || id > n)
            sim::panic("SeparatedImage: header corruption at %llu: id "
                       "%llu outside 1..%zu",
                       static_cast<unsigned long long>(cursor),
                       static_cast<unsigned long long>(id), n);
        if (kind > static_cast<std::uint8_t>(ObjectKind::Misc))
            sim::panic("SeparatedImage: header corruption at object "
                       "%llu: kind %u",
                       static_cast<unsigned long long>(id),
                       static_cast<unsigned>(kind));
        MetaObject &obj = objects[id - 1];
        if (obj.id != 0)
            sim::panic("SeparatedImage: header corruption: duplicate "
                       "object %llu",
                       static_cast<unsigned long long>(id));

        const std::uint64_t slot_base =
            cursor + kObjectHeaderBytes + align8(payload);
        const std::uint64_t end = slot_base + slots * kPointerSlotBytes;
        if (end > arena.size())
            sim::panic("SeparatedImage: header corruption: arena scan "
                       "overran (object %llu ends at %llu of %zu)",
                       static_cast<unsigned long long>(id),
                       static_cast<unsigned long long>(end), arena.size());

        // Integrity: the payload fill must match the checkpoint.
        const std::uint32_t bad = firstPayloadMismatch(
            arena.data() + cursor + kObjectHeaderBytes, id, payload);
        if (bad != payload)
            sim::panic("SeparatedImage: payload corruption at "
                       "object %llu byte %u",
                       static_cast<unsigned long long>(id), bad);

        obj.id = id;
        obj.kind = static_cast<ObjectKind>(kind);
        obj.payloadBytes = payload;
        obj.refs.resize(slots);
        for (std::uint16_t s = 0; s < slots; ++s) {
            const std::uint64_t off = slot_base + s * kPointerSlotBytes;
            while (reloc != relocs_.end() && reloc->slotOffset < off)
                ++reloc;
            const std::uint64_t raw =
                reloc != relocs_.end() && reloc->slotOffset == off
                    ? reloc->targetOffset + 1
                    : readU64(arena, off);
            if (raw == 0)
                continue; // null slot
            const std::uint64_t target = raw - 1;
            auto it = std::lower_bound(
                offset_to_id_.begin(), offset_to_id_.end(), target,
                [](const std::pair<std::uint64_t, std::uint64_t> &p,
                   std::uint64_t o) { return p.first < o; });
            if (it == offset_to_id_.end() || it->first != target)
                sim::panic("SeparatedImage: dangling target offset");
            obj.refs[s] = it->second;
        }
        cursor = end;
        ++placed;
    }
    if (placed != n)
        sim::panic("SeparatedImage: header corruption: decoded %zu of "
                   "%zu objects",
                   placed, n);
    return ObjectGraph(std::move(objects));
}

std::size_t
SeparatedImage::arenaPages() const
{
    return mem::pagesForBytes(arena_bytes_);
}

std::vector<std::uint64_t>
SeparatedImage::pointerPageList() const
{
    return pointer_pages_;
}

} // namespace catalyzer::objgraph
