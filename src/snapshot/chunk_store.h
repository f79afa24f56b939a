/**
 * @file
 * Content-addressed chunking of func-images and the per-machine tier
 * ladder that caches the chunks.
 *
 * Catalyzer's JVM-template observation — most func-image bytes are the
 * shared language runtime — generalizes: across a fleet, images of the
 * same language share their runtime heap and most of their library
 * working set, so whole-image transfers move the same bytes over and
 * over. The chunk store models the standard fix (content-defined
 * chunking, as the snapshot-dedup literature applies to serverless
 * images):
 *
 *  - chunkImage() cuts an image's page stream into chunks at rolling-
 *    hash cut points. Cut decisions depend only on a small sliding
 *    window of page fingerprints, so the cutter self-synchronizes:
 *    two images sharing a run of pages produce identical chunks for it
 *    regardless of where the run starts in either image.
 *  - The fingerprints come from a deterministic content model: runtime
 *    heap pages are shared per language, a calibrated fraction of app
 *    heap and metadata pages are language-shared libraries, and the
 *    rest is unique per function and generation.
 *  - TieredChunkCache is one machine's RAM + local-SSD chunk cache
 *    with LRU-2 eviction that *demotes* (RAM -> SSD) before dropping.
 *
 * Everything is pure bookkeeping on deterministic hashes — no clock is
 * touched here; ImageStore charges the tier costs when it consults the
 * cache during a fetch.
 */

#ifndef CATALYZER_SNAPSHOT_CHUNK_STORE_H
#define CATALYZER_SNAPSHOT_CHUNK_STORE_H

#include <cstdint>
#include <map>
#include <set>
#include <tuple>
#include <vector>

#include "net/fabric.h"
#include "sim/cost_model.h"
#include "snapshot/func_image.h"

namespace catalyzer::snapshot {

using net::ChunkId;

/** Chunk-mode switches for one machine's ImageStore. */
struct ChunkStoreConfig
{
    /**
     * Cut published images into content-defined chunks and fetch only
     * the chunks missing from every local tier. Off (the default)
     * keeps the whole-image fetch path bit-identical to the flat
     * per-MiB model.
     */
    bool enabled = false;
    /** RAM tier capacity for cached chunks. */
    std::size_t ramBudgetBytes = 64u << 20;
    /** Local-SSD tier capacity (demotion target). */
    std::size_t ssdBudgetBytes = 512u << 20;
    /**
     * Fraction of app-heap and metadata pages drawn from language-
     * shared libraries rather than function-private state. Calibrated
     * against the cross-snapshot redundancy the serverless-snapshot
     * studies measure (conservative end of their range).
     */
    double sharedLibFraction = 0.55;
};

/** One content-defined chunk of an image's page stream. */
struct ImageChunk
{
    ChunkId id = 0;
    std::size_t pages = 0;
};

/**
 * Cut @p image into content-defined chunks. Deterministic: the same
 * image always yields the same chunk list, and images sharing content
 * (same language runtime, shared libraries) yield overlapping chunk
 * ids. Chunk lengths respect costs.chunkMinPages / chunkAvgPages /
 * chunkMaxPages (the final chunk may run short).
 */
std::vector<ImageChunk> chunkImage(const FuncImage &image,
                                   const sim::CostModel &costs,
                                   double shared_lib_fraction);

/** Which local tier serves a chunk. */
enum class ChunkTier { None, Ram, Ssd };

/**
 * One machine's RAM + local-SSD chunk cache. Eviction is LRU-2 over a
 * logical access counter (virtual time stalls within a fetch, so wall
 * order of touches is the deterministic recency signal): the RAM
 * victim is the chunk with the oldest second-to-last access, and RAM
 * eviction demotes to SSD; only SSD eviction drops a chunk, and the
 * caller is told so it can unadvertise the chunk from the cluster
 * directory. Each tier keeps its chunks ordered by LRU-2 key, so a
 * victim is the index's first element and an eviction costs O(log n).
 */
class TieredChunkCache
{
  public:
    void configure(std::size_t ram_budget, std::size_t ssd_budget)
    {
        ram_budget_ = ram_budget;
        ssd_budget_ = ssd_budget;
    }

    /** Tier currently holding @p id (no recency update). */
    ChunkTier tierOf(ChunkId id) const;

    /** Record one use of a resident chunk (LRU-2 history). */
    void touch(ChunkId id);

    /** Bookkeeping of one cache reshuffle. */
    struct Result
    {
        /** Chunks that fell off the SSD tier (gone from the machine). */
        std::vector<ChunkId> dropped;
        std::size_t demotions = 0; ///< RAM -> SSD moves
    };

    /**
     * Insert @p id (@p bytes long) into the RAM tier, demoting LRU-2
     * victims to SSD as needed (an SSD-resident @p id is promoted).
     * Chunks larger than the RAM budget go straight to SSD.
     */
    Result insert(ChunkId id, std::size_t bytes);

    /** Demote every RAM-resident chunk to SSD (memory pressure). */
    Result demoteAll();

    std::size_t ramBytes() const { return ram_bytes_; }
    std::size_t ssdBytes() const { return ssd_bytes_; }

  private:
    struct Entry
    {
        std::size_t bytes = 0;
        ChunkTier tier = ChunkTier::None;
        /** Last and second-to-last access (logical counter). */
        std::uint64_t last = 0;
        std::uint64_t prev = 0;
    };

    /** LRU-2 order within a tier: (prev, last, id), oldest first. */
    using Lru2Key = std::tuple<std::uint64_t, std::uint64_t, ChunkId>;

    static Lru2Key
    keyOf(ChunkId id, const Entry &e)
    {
        return {e.prev, e.last, id};
    }
    std::set<Lru2Key> &
    order(ChunkTier tier)
    {
        return order_[tier == ChunkTier::Ram ? 0 : 1];
    }
    std::size_t &
    bytesIn(ChunkTier tier)
    {
        return tier == ChunkTier::Ram ? ram_bytes_ : ssd_bytes_;
    }

    /** LRU-2 victim in @p tier: oldest prev, then oldest last. */
    ChunkId victim(ChunkTier tier);
    /** Cache a new chunk in @p tier as its most recent access. */
    void add(ChunkId id, std::size_t bytes, ChunkTier tier);
    /** Move resident @p id from its tier to @p tier, index included. */
    void retier(ChunkId id, Entry &e, ChunkTier tier);
    void demote(ChunkId id, Result &result);
    /** Remove @p id from the machine and report it dropped. */
    void drop(ChunkId id, Result &result);
    /** Make @p bytes of headroom in @p tier. */
    void makeRoom(ChunkTier tier, std::size_t bytes, Result &result);

    std::size_t ram_budget_ = 64u << 20;
    std::size_t ssd_budget_ = 512u << 20;
    std::size_t ram_bytes_ = 0;
    std::size_t ssd_bytes_ = 0;
    std::uint64_t access_seq_ = 0;
    std::map<ChunkId, Entry> entries_;
    /** Per-tier LRU-2 index over entries_ (RAM, then SSD). */
    std::set<Lru2Key> order_[2];
};

} // namespace catalyzer::snapshot

#endif // CATALYZER_SNAPSHOT_CHUNK_STORE_H
