/**
 * @file
 * Baseline checkpoint codec (gVisor-restore style).
 *
 * Objects are serialized one-by-one into a protobuf-style stream and the
 * stream is compressed. Restore must decompress the stream and decode
 * every object individually — the cost Catalyzer's separated state
 * recovery eliminates.
 */

#ifndef CATALYZER_OBJGRAPH_PROTO_CODEC_H
#define CATALYZER_OBJGRAPH_PROTO_CODEC_H

#include <cstdint>
#include <vector>

#include "objgraph/object_graph.h"

namespace catalyzer::objgraph {

/**
 * A serialized-and-compressed object stream.
 *
 * The encoding is modelled faithfully enough to reproduce sizes: each
 * record carries a header, the payload, and one varint-ish slot per
 * reference; the compressor is a constant-ratio model of gzip on this
 * kind of data.
 */
class ProtoImage
{
  public:
    /** Typical gzip ratio on serialized kernel metadata. */
    static constexpr double kCompressionRatio = 0.42;
    /** Per-record framing overhead, bytes. */
    static constexpr std::size_t kRecordHeaderBytes = 12;
    /** Bytes per encoded reference slot. */
    static constexpr std::size_t kRefSlotBytes = 10;

    /** Encode a graph (checkpoint side). */
    static ProtoImage build(const ObjectGraph &graph);

    /** Decode back into an object graph (restore side). */
    ObjectGraph reconstruct() const;

    std::size_t objectCount() const { return record_count_; }
    std::size_t uncompressedBytes() const { return uncompressed_bytes_; }
    std::size_t compressedBytes() const { return compressed_bytes_; }

  private:
    std::vector<std::uint8_t> bytes_;
    std::size_t record_count_ = 0;
    std::size_t uncompressed_bytes_ = 0;
    std::size_t compressed_bytes_ = 0;
};

} // namespace catalyzer::objgraph

#endif // CATALYZER_OBJGRAPH_PROTO_CODEC_H
