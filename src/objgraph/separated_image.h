/**
 * @file
 * Separated state recovery image (paper Sec. 3.2).
 *
 * At checkpoint time the discrete in-memory objects are re-organized into
 * a contiguous, page-aligned arena; pointers are zeroed and recorded in a
 * relation table mapping pointer-slot offsets to pointee offsets. Restore
 * is then stage-1 (map the arena — overlay memory) plus stage-2 (patch
 * the pointer slots through the relation table, in parallel), instead of
 * per-object deserialization.
 */

#ifndef CATALYZER_OBJGRAPH_SEPARATED_IMAGE_H
#define CATALYZER_OBJGRAPH_SEPARATED_IMAGE_H

#include <cstdint>
#include <memory>
#include <vector>

#include "objgraph/object_graph.h"
#include "trace/trace.h"

namespace catalyzer::objgraph {

/** One relation-table entry: where a pointer lives -> what it points at. */
struct Reloc
{
    /** Byte offset of the pointer slot in the arena. */
    std::uint64_t slotOffset;
    /** Byte offset of the target object in the arena. */
    std::uint64_t targetOffset;
};

/**
 * The partially-deserialized metadata section of a func-image.
 *
 * The layout clusters pointer-bearing objects at the front of the arena
 * so that stage-2 pointer patching dirties (and therefore COWs) as few
 * pages as possible — this is what keeps the paper's per-instance
 * metadata cost in the hundreds-of-KB range (Table 3).
 */
class SeparatedImage
{
  public:
    static constexpr std::size_t kObjectHeaderBytes = 16;
    static constexpr std::size_t kPointerSlotBytes = 8;
    static constexpr std::size_t kRelocEntryBytes = 16;

    /** Re-organize a graph into the separated format (offline). */
    static SeparatedImage build(const ObjectGraph &graph);

    /**
     * Stage-1 + stage-2: rebuild the full object graph by applying the
     * relation table to the arena. The result is bit-identical to the
     * checkpointed graph.
     *
     * The arena itself is immutable and shared — stage-2 never copies
     * it. Patched pointer slots are read through the relation table,
     * which is kept in slot order, as an overlay (the per-instance COW
     * pages of the real system). Because the decode is a pure function
     * of the arena, its result is computed once, in one forward scan
     * of the arena and the table, and handed out as a shared
     * copy-on-write graph on every later boot.
     *
     * The first decode verifies every header (id in 1..n and unique,
     * kind in range, extent inside the arena) and every payload byte,
     * and panics with a "corruption" message on any mismatch.
     *
     * With an enabled @p trace, emits "arena-map", "relation-fixup" and
     * "arena-decode" child spans annotated with object/reloc counts
     * (the latencies of these passes are charged by the caller, so the
     * spans mainly carry structure and attribution).
     */
    ObjectGraph reconstruct(trace::TraceContext trace = {}) const;

    std::size_t objectCount() const { return object_count_; }
    std::size_t relocCount() const { return relocs_.size(); }

    /** Arena extent. */
    std::size_t arenaBytes() const { return arena_bytes_; }
    std::size_t arenaPages() const;

    /** Distinct arena pages containing at least one patched slot. */
    std::size_t pointerPages() const { return pointer_pages_.size(); }

    /**
     * Sorted arena-relative page indices dirtied by stage-2 patching.
     * These are exactly the pages a warm boot COWs into its Private-EPT
     * (the per-instance metadata cost of Table 3).
     */
    std::vector<std::uint64_t> pointerPageList() const;

    /** Relation table size on disk / in memory. */
    std::size_t
    relocTableBytes() const
    {
        return relocs_.size() * kRelocEntryBytes;
    }

    /** The relation table, strictly ascending in slotOffset. */
    const std::vector<Reloc> &relocs() const { return relocs_; }

    /** Raw arena bytes (the image's metadata section contents). */
    const std::vector<std::uint8_t> &arena() const { return *arena_; }

    /**
     * Test support: flip one arena byte (simulated storage rot).
     * Detaches from any sharers and drops the cached decode so the
     * corruption is actually re-read.
     */
    void
    corruptByteForTesting(std::uint64_t offset)
    {
        if (arena_.use_count() > 1)
            arena_ = std::make_shared<std::vector<std::uint8_t>>(*arena_);
        arena_->at(offset) ^= 0xff;
        decoded_valid_ = false;
    }

  private:
    /** The first-boot decode behind reconstruct()'s memo. */
    ObjectGraph decode() const;

    std::size_t object_count_ = 0;
    /**
     * The relation table. build() emits it in ascending slot order —
     * pointer-bearing objects are laid out first, in id order — so it
     * doubles as the stage-2 patch overlay a decode reads forward.
     */
    std::vector<Reloc> relocs_;
    /** (arena offset, object id), sorted by offset. */
    std::vector<std::pair<std::uint64_t, std::uint64_t>> offset_to_id_;
    /** Sorted distinct arena pages containing patched slots. */
    std::vector<std::uint64_t> pointer_pages_;
    std::size_t arena_bytes_ = 0;
    /**
     * The real arena: packed headers, payload fill, zeroed slots.
     * Shared immutably across image copies and never written after
     * build() (outside the corruption test hook).
     */
    std::shared_ptr<std::vector<std::uint8_t>> arena_ =
        std::make_shared<std::vector<std::uint8_t>>();

    /** One-shot decode cache: reconstruct() is pure in the arena. */
    mutable ObjectGraph decoded_;
    mutable bool decoded_valid_ = false;
};

} // namespace catalyzer::objgraph

#endif // CATALYZER_OBJGRAPH_SEPARATED_IMAGE_H
