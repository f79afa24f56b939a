/**
 * @file
 * Tests for the content-addressed chunk layer: content-defined chunking
 * (determinism, cut bounds, cross-image sharing) and the tiered
 * RAM/SSD cache (LRU-2 demotion, eviction, flat-compat silence).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <set>
#include <vector>

#include "net/fabric.h"
#include "remote/template_registry.h"
#include "sandbox/pipelines.h"
#include "snapshot/chunk_store.h"
#include "snapshot/image_store.h"

namespace catalyzer::snapshot {
namespace {

using sandbox::FunctionRegistry;
using sandbox::Machine;

std::shared_ptr<FuncImage>
buildImage(FunctionRegistry &registry, const char *app)
{
    return sandbox::ensureSeparatedImage(
        registry.artifactsFor(apps::appByName(app)));
}

std::size_t
chunkBytes(const std::vector<ImageChunk> &chunks)
{
    std::size_t bytes = 0;
    for (const ImageChunk &chunk : chunks)
        bytes += mem::bytesForPages(chunk.pages);
    return bytes;
}

/** Bytes of @p a's chunks whose ids also appear in @p b. */
std::size_t
sharedBytes(const std::vector<ImageChunk> &a,
            const std::vector<ImageChunk> &b)
{
    std::set<ChunkId> in_b;
    for (const ImageChunk &chunk : b)
        in_b.insert(chunk.id);
    std::size_t bytes = 0;
    for (const ImageChunk &chunk : a)
        if (in_b.contains(chunk.id))
            bytes += mem::bytesForPages(chunk.pages);
    return bytes;
}

TEST(ChunkStoreTest, ChunkingIsDeterministicAndCoversTheImage)
{
    Machine machine(3);
    FunctionRegistry registry(machine);
    auto image = buildImage(registry, "python-django");
    const sim::CostModel &costs = machine.ctx().costs();

    const auto first = chunkImage(*image, costs, 0.55);
    const auto second = chunkImage(*image, costs, 0.55);
    ASSERT_EQ(first.size(), second.size());
    for (std::size_t i = 0; i < first.size(); ++i) {
        EXPECT_EQ(first[i].id, second[i].id);
        EXPECT_EQ(first[i].pages, second[i].pages);
    }

    // Chunks tile the image exactly.
    std::size_t pages = 0;
    for (const ImageChunk &chunk : first)
        pages += chunk.pages;
    EXPECT_EQ(pages, image->totalPages());
}

TEST(ChunkStoreTest, CutLengthsRespectTheConfiguredBounds)
{
    Machine machine(3);
    FunctionRegistry registry(machine);
    auto image = buildImage(registry, "java-specjbb");
    const sim::CostModel &costs = machine.ctx().costs();

    const auto chunks = chunkImage(*image, costs, 0.55);
    ASSERT_GT(chunks.size(), 1u);
    for (std::size_t i = 0; i < chunks.size(); ++i) {
        EXPECT_LE(chunks[i].pages, costs.chunkMaxPages);
        // Only the tail chunk may come up short of the minimum.
        if (i + 1 < chunks.size()) {
            EXPECT_GE(chunks[i].pages, costs.chunkMinPages);
        }
    }
}

TEST(ChunkStoreTest, SameLanguageImagesShareRuntimeChunks)
{
    // Two Python functions share the interpreter runtime and the
    // shared-library slice of their heaps; the chunker must produce
    // identical ids for that content even though the images differ in
    // size and layout.
    Machine machine(3);
    FunctionRegistry registry(machine);
    auto hello = buildImage(registry, "python-hello");
    auto django = buildImage(registry, "python-django");
    const sim::CostModel &costs = machine.ctx().costs();

    const auto hello_chunks = chunkImage(*hello, costs, 0.55);
    const auto django_chunks = chunkImage(*django, costs, 0.55);
    const std::size_t shared =
        sharedBytes(hello_chunks, django_chunks);
    // Most of the smaller image is the shared interpreter.
    EXPECT_GT(shared, chunkBytes(hello_chunks) * 2 / 5);
}

TEST(ChunkStoreTest, CrossLanguageImagesShareAlmostNothing)
{
    Machine machine(3);
    FunctionRegistry registry(machine);
    auto c = buildImage(registry, "c-hello");
    auto python = buildImage(registry, "python-hello");
    const sim::CostModel &costs = machine.ctx().costs();

    const auto c_chunks = chunkImage(*c, costs, 0.55);
    const auto py_chunks = chunkImage(*python, costs, 0.55);
    const std::size_t shared = sharedBytes(c_chunks, py_chunks);
    EXPECT_LT(shared, chunkBytes(c_chunks) / 20);
}

TEST(ChunkStoreTest, RamEvictionDemotesToSsdBeforeDropping)
{
    TieredChunkCache cache;
    const std::size_t kChunk = 1u << 20;
    cache.configure(/*ram=*/2 * kChunk, /*ssd=*/4 * kChunk);

    // Fill RAM, then overflow it: the LRU-2 victim moves to SSD.
    EXPECT_TRUE(cache.insert(1, kChunk).dropped.empty());
    EXPECT_TRUE(cache.insert(2, kChunk).dropped.empty());
    EXPECT_EQ(cache.ramBytes(), 2 * kChunk);
    const auto spill = cache.insert(3, kChunk);
    EXPECT_EQ(spill.demotions, 1u);
    EXPECT_TRUE(spill.dropped.empty());
    EXPECT_EQ(cache.tierOf(1), ChunkTier::Ssd); // oldest went down
    EXPECT_EQ(cache.tierOf(2), ChunkTier::Ram);
    EXPECT_EQ(cache.tierOf(3), ChunkTier::Ram);

    // An SSD hit promotes back to RAM, demoting another victim.
    const auto promote = cache.insert(1, kChunk);
    EXPECT_EQ(promote.demotions, 1u);
    EXPECT_EQ(cache.tierOf(1), ChunkTier::Ram);
    EXPECT_EQ(cache.tierOf(2), ChunkTier::Ssd);

    // demoteAll empties the RAM tier without losing anything.
    const auto demoted = cache.demoteAll();
    EXPECT_EQ(demoted.demotions, 2u);
    EXPECT_TRUE(demoted.dropped.empty());
    EXPECT_EQ(cache.ramBytes(), 0u);
    EXPECT_EQ(cache.ssdBytes(), 3 * kChunk);
}

TEST(ChunkStoreTest, SsdOverflowDropsColdChunks)
{
    TieredChunkCache cache;
    const std::size_t kChunk = 1u << 20;
    cache.configure(/*ram=*/kChunk, /*ssd=*/2 * kChunk);

    cache.insert(1, kChunk);
    cache.insert(2, kChunk); // 1 demoted to SSD
    cache.insert(3, kChunk); // 2 demoted to SSD
    cache.insert(4, kChunk); // 3 demoted; SSD over budget drops 1
    EXPECT_EQ(cache.tierOf(1), ChunkTier::None);
    EXPECT_EQ(cache.tierOf(2), ChunkTier::Ssd);
    EXPECT_EQ(cache.tierOf(3), ChunkTier::Ssd);
    EXPECT_EQ(cache.tierOf(4), ChunkTier::Ram);
    EXPECT_LE(cache.ssdBytes(), 2 * kChunk);
}

TEST(ChunkStoreTest, ChunkLargerThanEveryTierLeavesSsdResidentsAlone)
{
    TieredChunkCache cache;
    const std::size_t kMiB = 1u << 20;
    cache.configure(/*ram=*/kMiB, /*ssd=*/2 * kMiB);

    cache.insert(1, kMiB);
    cache.insert(2, kMiB); // 1 demoted to SSD
    ASSERT_EQ(cache.tierOf(1), ChunkTier::Ssd);

    // 3 MiB fits neither tier: only the newcomer is dropped.
    const auto oversized = cache.insert(3, 3 * kMiB);
    EXPECT_EQ(oversized.dropped, std::vector<ChunkId>{3});
    EXPECT_EQ(oversized.demotions, 0u);
    EXPECT_EQ(cache.tierOf(1), ChunkTier::Ssd);
    EXPECT_EQ(cache.tierOf(2), ChunkTier::Ram);
    EXPECT_EQ(cache.tierOf(3), ChunkTier::None);
    EXPECT_EQ(cache.ssdBytes(), kMiB);
    EXPECT_EQ(cache.ramBytes(), kMiB);
}

/**
 * The LRU-2 cache as a linear scan: the specification the indexed
 * TieredChunkCache must reproduce step for step.
 */
class ScanLru2Cache
{
  public:
    ScanLru2Cache(std::size_t ram_budget, std::size_t ssd_budget)
        : ram_budget_(ram_budget), ssd_budget_(ssd_budget)
    {
    }

    ChunkTier
    tierOf(ChunkId id) const
    {
        auto it = entries_.find(id);
        return it == entries_.end() ? ChunkTier::None : it->second.tier;
    }

    void
    touch(ChunkId id)
    {
        auto it = entries_.find(id);
        if (it == entries_.end())
            return;
        it->second.prev = it->second.last;
        it->second.last = ++seq_;
    }

    TieredChunkCache::Result
    insert(ChunkId id, std::size_t bytes)
    {
        TieredChunkCache::Result r;
        auto it = entries_.find(id);
        if (it != entries_.end() && it->second.tier == ChunkTier::Ram) {
            touch(id);
            return r;
        }
        if (bytes > ram_budget_) {
            if (it != entries_.end()) {
                touch(id);
            } else if (bytes <= ssd_budget_) {
                makeRoom(ChunkTier::Ssd, bytes, r);
                entries_[id] = Entry{bytes, ChunkTier::Ssd, 0, 0};
                ssd_bytes_ += bytes;
                touch(id);
            } else {
                r.dropped.push_back(id);
            }
            return r;
        }
        if (it != entries_.end()) {
            ssd_bytes_ -= it->second.bytes;
            ram_bytes_ += it->second.bytes;
            it->second.tier = ChunkTier::Ram;
            touch(id);
            makeRoom(ChunkTier::Ram, 0, r);
            return r;
        }
        makeRoom(ChunkTier::Ram, bytes, r);
        entries_[id] = Entry{bytes, ChunkTier::Ram, 0, 0};
        ram_bytes_ += bytes;
        touch(id);
        return r;
    }

    TieredChunkCache::Result
    demoteAll()
    {
        TieredChunkCache::Result r;
        std::vector<ChunkId> ram_ids;
        for (const auto &[id, e] : entries_)
            if (e.tier == ChunkTier::Ram)
                ram_ids.push_back(id);
        for (ChunkId id : ram_ids)
            demote(id, r);
        return r;
    }

    std::size_t ramBytes() const { return ram_bytes_; }
    std::size_t ssdBytes() const { return ssd_bytes_; }

  private:
    struct Entry
    {
        std::size_t bytes;
        ChunkTier tier;
        std::uint64_t prev;
        std::uint64_t last;
    };

    ChunkId
    victim(ChunkTier tier) const
    {
        const Entry *best = nullptr;
        ChunkId best_id = 0;
        for (const auto &[id, e] : entries_) {
            if (e.tier != tier)
                continue;
            if (best == nullptr || e.prev < best->prev ||
                (e.prev == best->prev && e.last < best->last)) {
                best = &e;
                best_id = id;
            }
        }
        return best_id;
    }

    void
    demote(ChunkId id, TieredChunkCache::Result &r)
    {
        Entry &e = entries_.at(id);
        ram_bytes_ -= e.bytes;
        if (e.bytes > ssd_budget_) {
            entries_.erase(id);
            r.dropped.push_back(id);
            return;
        }
        e.tier = ChunkTier::Ssd;
        ssd_bytes_ += e.bytes;
        ++r.demotions;
        makeRoom(ChunkTier::Ssd, 0, r);
    }

    void
    makeRoom(ChunkTier tier, std::size_t bytes, TieredChunkCache::Result &r)
    {
        if (tier == ChunkTier::Ram) {
            while (ram_bytes_ + bytes > ram_budget_ && ram_bytes_ > 0)
                demote(victim(ChunkTier::Ram), r);
            return;
        }
        while (ssd_bytes_ + bytes > ssd_budget_ && ssd_bytes_ > 0) {
            const ChunkId id = victim(ChunkTier::Ssd);
            ssd_bytes_ -= entries_.at(id).bytes;
            entries_.erase(id);
            r.dropped.push_back(id);
        }
    }

    std::size_t ram_budget_;
    std::size_t ssd_budget_;
    std::size_t ram_bytes_ = 0;
    std::size_t ssd_bytes_ = 0;
    std::uint64_t seq_ = 0;
    std::map<ChunkId, Entry> entries_;
};

TEST(ChunkStoreTest, IndexedLru2MatchesLinearScanReference)
{
    const std::size_t kUnit = 4096;
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        std::mt19937_64 rng(seed);
        // Small budgets (a few chunks per tier) keep eviction busy.
        const std::size_t ram = kUnit * (2 + rng() % 6);
        const std::size_t ssd = kUnit * (2 + rng() % 10);
        TieredChunkCache cache;
        cache.configure(ram, ssd);
        ScanLru2Cache reference(ram, ssd);
        const ChunkId kIds = 24;
        for (int step = 0; step < 600; ++step) {
            const ChunkId id = 1 + rng() % kIds;
            // Sizes from a fraction of a unit up to past the SSD budget.
            const std::size_t bytes = kUnit / 2 + rng() % (ssd + kUnit);
            const unsigned op = static_cast<unsigned>(rng() % 16);
            TieredChunkCache::Result got, want;
            if (op < 10) {
                got = cache.insert(id, bytes);
                want = reference.insert(id, bytes);
            } else if (op < 15) {
                cache.touch(id);
                reference.touch(id);
            } else {
                got = cache.demoteAll();
                want = reference.demoteAll();
            }
            SCOPED_TRACE(testing::Message()
                         << "seed " << seed << " step " << step);
            ASSERT_EQ(got.dropped, want.dropped);
            ASSERT_EQ(got.demotions, want.demotions);
            ASSERT_EQ(cache.ramBytes(), reference.ramBytes());
            ASSERT_EQ(cache.ssdBytes(), reference.ssdBytes());
            for (ChunkId c = 1; c <= kIds; ++c)
                ASSERT_EQ(cache.tierOf(c), reference.tierOf(c))
                    << "chunk " << c;
        }
    }
}

TEST(ChunkStoreTest, EvictedChunksLeaveTheClusterDirectory)
{
    // When the SSD tier drops a chunk the store must unadvertise it,
    // or peers would stream from a holder that no longer has the
    // bytes.
    Machine machine(17);
    FunctionRegistry registry(machine);
    net::Fabric fabric;
    remote::TemplateRegistry directory(&fabric);
    ImageStore store(machine.ctx());
    ChunkStoreConfig config;
    config.enabled = true;
    // Budgets far below one image: publishing churns every chunk
    // through RAM and overboard off the SSD tier.
    config.ramBudgetBytes = 1u << 20;
    config.ssdBudgetBytes = 2u << 20;
    store.configureChunks(config);
    store.attachFabric(&fabric, 0, &directory, &directory);
    store.publish(buildImage(registry, "python-django"));

    EXPECT_GT(machine.ctx().stats().value("image.chunks.evictions"),
              0);
    // Whatever survived in a tier is advertised; everything dropped is
    // not. The directory and the cache must agree chunk by chunk.
    const auto &chunks = store.chunkCache();
    std::size_t advertised = 0;
    for (const ImageChunk &chunk :
         chunkImage(*store.fetch("python-django",
                                 ImageFormat::SeparatedWellFormed),
                    machine.ctx().costs(), config.sharedLibFraction)) {
        const bool cached =
            chunks.tierOf(chunk.id) != ChunkTier::None;
        // The store is node 0; ask from node 1 so it is not excluded.
        EXPECT_EQ(directory.nearestChunkHolder(chunk.id, 1).has_value(),
                  cached);
        advertised += cached ? 1 : 0;
    }
    EXPECT_GT(advertised, 0u);
}

TEST(ChunkStoreTest, DisabledChunkingTouchesNoChunkCounters)
{
    // Flat-compat discipline: with chunking off (the default) a full
    // publish/evict/fetch cycle must not materialize a single
    // image.chunks.* counter in the registry.
    Machine machine(19);
    FunctionRegistry registry(machine);
    ImageStore store(machine.ctx());
    store.publish(buildImage(registry, "python-hello"));
    store.evictLocal("python-hello", ImageFormat::SeparatedWellFormed);
    store.fetch("python-hello", ImageFormat::SeparatedWellFormed);

    for (const auto &[name, value] : machine.ctx().stats().all())
        EXPECT_EQ(name.rfind("image.chunks.", 0), std::string::npos)
            << name;
}

} // namespace
} // namespace catalyzer::snapshot
