#include "objgraph/separated_image.h"

#include <algorithm>
#include <array>
#include <bit>
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

static_assert(std::endian::native == std::endian::little,
              "arena integers are copied as native little-endian values");

/** The decoded fields of one object header (layout: kObjectHeaderBytes). */
struct Header
{
    std::uint64_t id = 0;
    std::uint8_t kind = 0;
    std::uint16_t slots = 0;
    std::uint32_t payload = 0;
};

void
writeHeader(std::uint8_t *dst, const Header &h)
{
    std::memcpy(dst, &h.id, sizeof h.id);
    dst[8] = h.kind;
    std::memcpy(dst + 9, &h.slots, sizeof h.slots);
    std::memcpy(dst + 12, &h.payload, sizeof h.payload);
}

Header
readHeader(const std::uint8_t *src)
{
    Header h;
    std::memcpy(&h.id, src, sizeof h.id);
    h.kind = src[8];
    std::memcpy(&h.slots, src + 9, sizeof h.slots);
    std::memcpy(&h.payload, src + 12, sizeof h.payload);
    return h;
}

std::uint64_t
readU64(const std::uint8_t *src)
{
    std::uint64_t v;
    std::memcpy(&v, src, sizeof v);
    return v;
}

/**
 * Deterministic payload fill so a restore can verify integrity: byte i
 * of object @p id's payload is (id * 31 + i) & 0xff, i.e. the ramp
 * entry at (id * 31) & 0xff plus i % 256.
 *
 * Payloads are filled and compared in fixed 16-byte chunks, which
 * compile to plain vector loads and stores; a variable-length
 * memcpy/memcmp call per ~100-byte payload costs more than the copy.
 * The last chunk ends flush with the payload and may overlap the one
 * before it; payloads under 16 bytes go byte by byte. The ramp holds
 * two periods plus a chunk, so no chunk runs off its end.
 */
constexpr std::size_t kRampPeriod = 256;
constexpr std::size_t kChunk = 16;
constexpr std::array<std::uint8_t, 2 * kRampPeriod + kChunk> kRamp = [] {
    std::array<std::uint8_t, 2 * kRampPeriod + kChunk> ramp{};
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
    if (bytes < kChunk) {
        for (std::uint32_t i = 0; i < bytes; ++i)
            dst[i] = ramp[i];
        return;
    }
    for (std::uint32_t i = 0; i + kChunk <= bytes; i += kChunk)
        std::memcpy(dst + i, ramp + i % kRampPeriod, kChunk);
    const std::uint32_t last = bytes - kChunk;
    std::memcpy(dst + last, ramp + last % kRampPeriod, kChunk);
}

std::uint32_t
firstPayloadMismatch(const std::uint8_t *src, std::uint64_t id,
                     std::uint32_t bytes)
{
    const std::uint8_t *ramp = rampFor(id);
    // The first differing byte in [from, to), or to.
    auto first_in = [&](std::uint32_t from, std::uint32_t to) {
        for (std::uint32_t i = from; i < to; ++i) {
            if (src[i] != ramp[i % kRampPeriod])
                return i;
        }
        return to;
    };
    if (bytes < kChunk)
        return first_in(0, bytes);
    std::uint32_t i = 0;
    for (; i + kChunk <= bytes; i += kChunk) {
        if (std::memcmp(src + i, ramp + i % kRampPeriod, kChunk) != 0)
            return first_in(i, i + kChunk);
    }
    const std::uint32_t last = bytes - kChunk;
    if (std::memcmp(src + last, ramp + last % kRampPeriod, kChunk) != 0)
        return first_in(i, bytes);
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
    image.graph_ = graph;
    const std::size_t n = graph.objectCount();

    // Cluster pointer-bearing objects at the front of the arena so that
    // stage-2 patching dirties a compact page range. Ids are dense
    // (1..n), so offsets are indexed by id.
    constexpr std::uint64_t kUnplaced = ~std::uint64_t{0};
    auto &offset_of = image.offset_of_;
    offset_of.assign(n, kUnplaced);
    std::uint64_t cursor = 0;
    for (const bool pointer_pass : {true, false}) {
        for (const MetaObject &obj : graph.objects()) {
            if (offset_of[obj.id - 1] != kUnplaced ||
                (pointer_pass && !hasPointer(obj)))
                continue;
            offset_of[obj.id - 1] = cursor;
            cursor += slotBytesFor(obj.payloadBytes, obj.refs.size());
        }
    }
    image.arena_bytes_ = cursor;

    //
    // Materialize the arena: packed 16-byte headers, a deterministic
    // payload fill, and zeroed pointer slots. The relation table records
    // where every non-null pointer lives and what arena offset it must
    // resolve to. Walking objects in id order visits the clustered
    // pointer-bearing prefix in arena order, so relocations — and the
    // pages they dirty — are emitted in ascending slot order; each one
    // is validated here, once.
    //
    std::vector<std::uint8_t> &arena = *image.arena_;
    arena.assign(image.arena_bytes_, 0);
    image.relocs_.reserve(graph.pointerCount());
    for (const MetaObject &obj : graph.objects()) {
        if (obj.refs.size() > UINT16_MAX)
            sim::panic("SeparatedImage: object %llu has %zu slots, a "
                       "header holds at most 65535",
                       static_cast<unsigned long long>(obj.id),
                       obj.refs.size());
        const std::uint64_t base = offset_of[obj.id - 1];
        writeHeader(arena.data() + base,
                    Header{obj.id, static_cast<std::uint8_t>(obj.kind),
                           static_cast<std::uint16_t>(obj.refs.size()),
                           obj.payloadBytes});
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
                              offset_of[target - 1]};
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
    // order, bounds-checked at build time) and the verification reads
    // slot values through it, so no per-instance arena copy exists at
    // all.
    //
    {
        trace::ScopedSpan span(trace, "relation-fixup");
        span.attr("relocs", static_cast<std::int64_t>(relocs_.size()));
        span.attr("pointer_pages",
                  static_cast<std::int64_t>(pointerPages()));
    }

    trace::ScopedSpan decode_span(trace, "arena-decode");
    decode_span.attr("objects", static_cast<std::int64_t>(objectCount()));

    // The patched arena decodes to exactly the checkpointed graph, so
    // once it is verified every boot receives a copy-on-write alias of
    // that graph instead of a decoded copy.
    if (!verified_) {
        verify();
        verified_ = true;
    }
    return graph_;
}

void
SeparatedImage::verify() const
{
    const std::vector<std::uint8_t> &arena = *arena_;
    const std::size_t n = objectCount();

    //
    // One forward scan of the packed objects. Headers and payloads are
    // checked for self-consistency, then compared with the checkpointed
    // object of the same id; each slot's patched value comes from the
    // relation-table entry at that offset (a cursor that only moves
    // forward, as the scan does) or, for null slots, from the pristine
    // zeroed arena, and must equal the value build() patched in: target
    // offset + 1, so a pointer to the object at arena offset 0 stays
    // distinguishable from null.
    //
    std::vector<bool> seen(n);
    auto reloc = relocs_.begin();
    std::size_t placed = 0;
    std::uint64_t cursor = 0;
    while (cursor < arena.size()) {
        if (cursor + kObjectHeaderBytes > arena.size())
            sim::panic("SeparatedImage: header corruption: header at "
                       "%llu overruns the arena (%zu bytes)",
                       static_cast<unsigned long long>(cursor),
                       arena.size());
        const Header h = readHeader(arena.data() + cursor);
        const std::uint64_t id = h.id;
        if (id == 0 || id > n)
            sim::panic("SeparatedImage: header corruption at %llu: id "
                       "%llu outside 1..%zu",
                       static_cast<unsigned long long>(cursor),
                       static_cast<unsigned long long>(id), n);
        if (h.kind > static_cast<std::uint8_t>(ObjectKind::Misc))
            sim::panic("SeparatedImage: header corruption at object "
                       "%llu: kind %u",
                       static_cast<unsigned long long>(id),
                       static_cast<unsigned>(h.kind));
        if (seen[id - 1])
            sim::panic("SeparatedImage: header corruption: duplicate "
                       "object %llu",
                       static_cast<unsigned long long>(id));
        seen[id - 1] = true;

        const std::uint64_t slot_base =
            cursor + kObjectHeaderBytes + align8(h.payload);
        const std::uint64_t end = slot_base + h.slots * kPointerSlotBytes;
        if (end > arena.size())
            sim::panic("SeparatedImage: header corruption: arena scan "
                       "overran (object %llu ends at %llu of %zu)",
                       static_cast<unsigned long long>(id),
                       static_cast<unsigned long long>(end), arena.size());

        // Integrity: the payload fill must match the checkpoint.
        const std::uint32_t bad = firstPayloadMismatch(
            arena.data() + cursor + kObjectHeaderBytes, id, h.payload);
        if (bad != h.payload)
            sim::panic("SeparatedImage: payload corruption at "
                       "object %llu byte %u",
                       static_cast<unsigned long long>(id), bad);

        const MetaObject want = graph_.object(id);
        if (h.kind != static_cast<std::uint8_t>(want.kind) ||
            h.slots != want.refs.size() ||
            h.payload != want.payloadBytes)
            sim::panic("SeparatedImage: header corruption at object "
                       "%llu: kind %u, %u slots, %u payload bytes where "
                       "the checkpoint has kind %u, %zu, %u",
                       static_cast<unsigned long long>(id),
                       static_cast<unsigned>(h.kind),
                       static_cast<unsigned>(h.slots), h.payload,
                       static_cast<unsigned>(want.kind), want.refs.size(),
                       want.payloadBytes);

        for (std::uint16_t s = 0; s < h.slots; ++s) {
            const std::uint64_t off = slot_base + s * kPointerSlotBytes;
            while (reloc != relocs_.end() && reloc->slotOffset < off)
                ++reloc;
            const std::uint64_t raw =
                reloc != relocs_.end() && reloc->slotOffset == off
                    ? reloc->targetOffset + 1
                    : readU64(arena.data() + off);
            const std::uint64_t target = want.refs[s];
            const std::uint64_t expect =
                target == 0 ? 0 : offset_of_[target - 1] + 1;
            if (raw != expect)
                sim::panic("SeparatedImage: slot corruption at object "
                           "%llu slot %u: value %llu where the "
                           "checkpoint has %llu",
                           static_cast<unsigned long long>(id),
                           static_cast<unsigned>(s),
                           static_cast<unsigned long long>(raw),
                           static_cast<unsigned long long>(expect));
        }
        cursor = end;
        ++placed;
    }
    if (placed != n)
        sim::panic("SeparatedImage: header corruption: decoded %zu of "
                   "%zu objects",
                   placed, n);
}

std::size_t
SeparatedImage::arenaPages() const
{
    return mem::pagesForBytes(arena_bytes_);
}

} // namespace catalyzer::objgraph
