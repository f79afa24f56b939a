#include "snapshot/chunk_store.h"

#include <algorithm>
#include <string>

#include "sim/logging.h"

namespace catalyzer::snapshot {

namespace {

/** splitmix64 finalizer: the standard cheap 64-bit mixer. */
std::uint64_t
mix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** FNV-1a over a string (seed material for the fingerprint streams). */
std::uint64_t
hashString(const std::string &s)
{
    std::uint64_t h = 1469598103934665603ULL;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    return h;
}

std::uint64_t
rotl(std::uint64_t x, int r)
{
    return (x << r) | (x >> (64 - r));
}

/**
 * The per-page fingerprint streams of one image. Each region's stream
 * is indexed *region-relative*, so two images sharing a region's
 * content produce identical fingerprint runs no matter where the
 * region lands in either image — which is what lets the cutter emit
 * identical chunks for shared content.
 */
struct ContentModel
{
    std::size_t runtimePages = 0;   ///< language-shared runtime heap
    std::size_t appSharedPages = 0; ///< language-shared app libraries
    std::size_t appUniquePages = 0;
    std::size_t metaSharedPages = 0; ///< shared metadata templates
    std::size_t tailPages = 0; ///< unique metadata + manifest tail
    std::uint64_t runtimeSeed = 0;
    std::uint64_t libSeed = 0;
    std::uint64_t metaSeed = 0;
    std::uint64_t uniqueSeed = 0;

    std::size_t
    totalPages() const
    {
        return runtimePages + appSharedPages + appUniquePages +
               metaSharedPages + tailPages;
    }

    /** Fingerprint of page @p i of the concatenated stream. */
    std::uint64_t
    fingerprint(std::size_t i) const
    {
        if (i < runtimePages)
            return mix(runtimeSeed + i);
        i -= runtimePages;
        if (i < appSharedPages)
            return mix(libSeed + i);
        i -= appSharedPages;
        if (i < appUniquePages)
            return mix(uniqueSeed + i);
        i -= appUniquePages;
        if (i < metaSharedPages)
            return mix(metaSeed + i);
        i -= metaSharedPages;
        return mix((uniqueSeed ^ 0xa5a5a5a5a5a5a5a5ULL) + i);
    }
};

ContentModel
modelOf(const FuncImage &image, double shared_lib_fraction)
{
    const double frac = std::clamp(shared_lib_fraction, 0.0, 1.0);
    const apps::AppProfile &app = image.app();
    const std::size_t mem_pages = image.memorySectionPages();
    const std::size_t meta_pages = image.metadataSectionPages();

    ContentModel m;
    m.runtimePages = std::min(mem_pages, app.runtimeHeapPages);
    const std::size_t app_pages = mem_pages - m.runtimePages;
    m.appSharedPages = static_cast<std::size_t>(
        static_cast<double>(app_pages) * frac);
    m.appUniquePages = app_pages - m.appSharedPages;
    m.metaSharedPages = static_cast<std::size_t>(
        static_cast<double>(meta_pages) * frac);
    // Everything past the shared metadata — the function-private
    // metadata remainder plus the manifest page(s) — is unique tail.
    m.tailPages = image.totalPages() - m.runtimePages - app_pages -
                  m.metaSharedPages;

    // Streams are shared per language *and* format (a compressed proto
    // image shares nothing with a well-formed one).
    const std::string lang_key =
        std::string(apps::languageName(app.language)) + "/" +
        imageFormatName(image.format());
    m.runtimeSeed = mix(hashString("runtime-heap/" + lang_key));
    m.libSeed = mix(hashString("app-libs/" + lang_key));
    m.metaSeed = mix(hashString("metadata/" + lang_key));
    m.uniqueSeed = mix(hashString(image.functionName() + "/" + lang_key) ^
                       (image.generation() * 0x2545f4914f6cdd1dULL));
    return m;
}

} // namespace

std::vector<ImageChunk>
chunkImage(const FuncImage &image, const sim::CostModel &costs,
           double shared_lib_fraction)
{
    const std::size_t min_pages = std::max<std::size_t>(
        costs.chunkMinPages, 1);
    const std::size_t max_pages = std::max(costs.chunkMaxPages, min_pages);
    std::size_t avg = std::max<std::size_t>(costs.chunkAvgPages, 2);
    // The cut test masks the window hash's low bits, so the average
    // must be a power of two; round down if mistuned.
    while ((avg & (avg - 1)) != 0)
        avg &= avg - 1;
    const std::uint64_t mask = avg - 1;

    const ContentModel model = modelOf(image, shared_lib_fraction);
    const std::size_t total = model.totalPages();
    if (total != image.totalPages())
        sim::panic("chunkImage: content model covers %zu of %zu pages",
                   total, image.totalPages());

    std::vector<ImageChunk> chunks;
    chunks.reserve(total / avg + 1);
    // Sliding window of the last four fingerprints: the cut decision
    // depends only on local content, so the cutter re-synchronizes
    // within a few pages of entering a shared region.
    std::uint64_t w0 = 0, w1 = 0, w2 = 0, w3 = 0;
    std::uint64_t chunk_hash = 1469598103934665603ULL;
    std::size_t len = 0;
    for (std::size_t i = 0; i < total; ++i) {
        const std::uint64_t fp = model.fingerprint(i);
        w3 = w2;
        w2 = w1;
        w1 = w0;
        w0 = fp;
        chunk_hash = mix(chunk_hash ^ fp);
        ++len;
        const std::uint64_t window =
            mix(w0 ^ rotl(w1, 13) ^ rotl(w2, 27) ^ rotl(w3, 41));
        const bool at_cut =
            (len >= min_pages && (window & mask) == mask) ||
            len >= max_pages;
        if (at_cut || i + 1 == total) {
            chunks.push_back(
                ImageChunk{mix(chunk_hash ^ len), len});
            chunk_hash = 1469598103934665603ULL;
            len = 0;
        }
    }
    return chunks;
}

ChunkTier
TieredChunkCache::tierOf(ChunkId id) const
{
    auto it = entries_.find(id);
    return it == entries_.end() ? ChunkTier::None : it->second.tier;
}

void
TieredChunkCache::touch(ChunkId id)
{
    auto it = entries_.find(id);
    if (it == entries_.end())
        return;
    Entry &e = it->second;
    auto &index = order(e.tier);
    auto node = index.extract(keyOf(id, e));
    e.prev = e.last;
    e.last = ++access_seq_;
    node.value() = keyOf(id, e);
    index.insert(std::move(node));
}

ChunkId
TieredChunkCache::victim(ChunkTier tier)
{
    // LRU-2: oldest second-to-last access first, last access as the
    // tie-break, the id settling exact ties — the index's key order.
    const auto &index = order(tier);
    if (index.empty())
        sim::panic("TieredChunkCache: no victim in tier");
    return std::get<2>(*index.begin());
}

void
TieredChunkCache::add(ChunkId id, std::size_t bytes, ChunkTier tier)
{
    Entry &e = entries_[id];
    e = Entry{.bytes = bytes, .tier = tier, .last = ++access_seq_};
    order(tier).insert(keyOf(id, e));
    bytesIn(tier) += bytes;
}

void
TieredChunkCache::retier(ChunkId id, Entry &e, ChunkTier tier)
{
    order(tier).insert(order(e.tier).extract(keyOf(id, e)));
    bytesIn(e.tier) -= e.bytes;
    bytesIn(tier) += e.bytes;
    e.tier = tier;
}

void
TieredChunkCache::drop(ChunkId id, Result &result)
{
    auto it = entries_.find(id);
    bytesIn(it->second.tier) -= it->second.bytes;
    order(it->second.tier).erase(keyOf(id, it->second));
    entries_.erase(it);
    result.dropped.push_back(id);
}

void
TieredChunkCache::demote(ChunkId id, Result &result)
{
    Entry &e = entries_.at(id);
    if (e.bytes > ssd_budget_) {
        drop(id, result);
        return;
    }
    retier(id, e, ChunkTier::Ssd);
    ++result.demotions;
    makeRoom(ChunkTier::Ssd, 0, result);
}

void
TieredChunkCache::makeRoom(ChunkTier tier, std::size_t bytes,
                           Result &result)
{
    if (tier == ChunkTier::Ram) {
        while (ram_bytes_ + bytes > ram_budget_ && ram_bytes_ > 0)
            demote(victim(ChunkTier::Ram), result);
    } else {
        while (ssd_bytes_ + bytes > ssd_budget_ && ssd_bytes_ > 0)
            drop(victim(ChunkTier::Ssd), result);
    }
}

TieredChunkCache::Result
TieredChunkCache::insert(ChunkId id, std::size_t bytes)
{
    Result result;
    auto it = entries_.find(id);
    if (it != entries_.end() && it->second.tier == ChunkTier::Ram) {
        touch(id);
        return result;
    }
    if (bytes > ram_budget_) {
        // Never fits in RAM: cache on SSD directly. A chunk that fits
        // no tier is dropped without disturbing the SSD residents.
        if (it != entries_.end()) {
            touch(id);
        } else if (bytes <= ssd_budget_) {
            makeRoom(ChunkTier::Ssd, bytes, result);
            add(id, bytes, ChunkTier::Ssd);
        } else {
            result.dropped.push_back(id);
        }
        return result;
    }
    if (it != entries_.end()) {
        // Promote SSD -> RAM.
        retier(id, it->second, ChunkTier::Ram);
        touch(id);
        makeRoom(ChunkTier::Ram, 0, result);
        return result;
    }
    makeRoom(ChunkTier::Ram, bytes, result);
    add(id, bytes, ChunkTier::Ram);
    return result;
}

TieredChunkCache::Result
TieredChunkCache::demoteAll()
{
    Result result;
    std::vector<ChunkId> ram_ids;
    for (const auto &[id, e] : entries_)
        if (e.tier == ChunkTier::Ram)
            ram_ids.push_back(id);
    for (ChunkId id : ram_ids)
        demote(id, result);
    return result;
}

} // namespace catalyzer::snapshot
