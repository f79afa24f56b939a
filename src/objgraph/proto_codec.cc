#include "objgraph/proto_codec.h"

#include "sim/logging.h"

namespace catalyzer::objgraph {

namespace {

/** LEB128-style varint append. */
void
putVarint(std::vector<std::uint8_t> &buf, std::uint64_t v)
{
    while (v >= 0x80) {
        buf.push_back(static_cast<std::uint8_t>(v) | 0x80);
        v >>= 7;
    }
    buf.push_back(static_cast<std::uint8_t>(v));
}

/** Varint decode; advances @p pos. */
std::uint64_t
getVarint(const std::vector<std::uint8_t> &buf, std::size_t &pos)
{
    std::uint64_t v = 0;
    int shift = 0;
    for (;;) {
        if (pos >= buf.size())
            sim::panic("ProtoImage: truncated varint");
        const std::uint8_t byte = buf[pos++];
        v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
        if (!(byte & 0x80))
            return v;
        shift += 7;
        if (shift > 63)
            sim::panic("ProtoImage: varint overflow");
    }
}

} // namespace

ProtoImage
ProtoImage::build(const ObjectGraph &graph)
{
    ProtoImage image;
    image.record_count_ = graph.objectCount();

    // One record per object: kind, payload length, ref count, refs —
    // the structural stream the restore path must walk one by one.
    for (const auto &obj : graph.objects()) {
        putVarint(image.bytes_, static_cast<std::uint64_t>(obj.kind));
        putVarint(image.bytes_, obj.payloadBytes);
        putVarint(image.bytes_, obj.refs.size());
        for (std::uint64_t ref : obj.refs)
            putVarint(image.bytes_, ref);
        image.uncompressed_bytes_ += kRecordHeaderBytes + obj.payloadBytes +
                                     obj.refs.size() * kRefSlotBytes;
    }
    image.compressed_bytes_ = static_cast<std::size_t>(
        static_cast<double>(image.uncompressed_bytes_) * kCompressionRatio);
    return image;
}

ObjectGraph
ProtoImage::reconstruct() const
{
    ObjectGraph graph;
    std::vector<std::uint64_t> refs; // reused record to record
    std::size_t pos = 0;
    for (std::size_t i = 0; i < record_count_; ++i) {
        const auto kind = static_cast<ObjectKind>(getVarint(bytes_, pos));
        const auto payload =
            static_cast<std::uint32_t>(getVarint(bytes_, pos));
        const auto nrefs = getVarint(bytes_, pos);
        refs.clear();
        for (std::uint64_t r = 0; r < nrefs; ++r)
            refs.push_back(getVarint(bytes_, pos));
        graph.addObject(kind, payload, refs);
    }
    if (pos != bytes_.size())
        sim::panic("ProtoImage: trailing bytes after decode (%zu of %zu)",
                   pos, bytes_.size());
    return graph;
}

} // namespace catalyzer::objgraph
