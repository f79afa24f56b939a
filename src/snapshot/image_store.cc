#include "snapshot/image_store.h"

#include <algorithm>

#include "sim/logging.h"
#include "sim/metric_catalog.h"

namespace catalyzer::snapshot {

namespace {

/** Pages per chunk when a modeled image fetch streams from its source. */
constexpr std::size_t kFetchChunkPages = 1024;

} // namespace

std::string
ImageStore::key(const std::string &name, ImageFormat format)
{
    return name + "/" + imageFormatName(format);
}

void
ImageStore::publish(std::shared_ptr<FuncImage> image)
{
    if (!image)
        sim::panic("ImageStore::publish: null image");
    const std::string k = key(image->functionName(), image->format());
    remote_[k] = image;
    if (replicas_ != nullptr) {
        // Record the publish with the cluster directory so copies of
        // an *older* generation cached on other machines turn stale
        // (see staleLocal); the producer itself is always current.
        local_stamp_[k] =
            replicas_->recordPublish(k, self_, image->generation());
    }
    if (chunk_config_.enabled) {
        // The producer holds the bytes it just published: seed its
        // local tiers and advertise the chunks (offline bookkeeping,
        // no boot-path charge — like publish itself).
        const std::vector<ImageChunk> &chunks =
            chunkManifestFor(k, *image);
        for (const ImageChunk &chunk : chunks) {
            applyCacheResult(chunk_cache_.insert(
                chunk.id, mem::bytesForPages(chunk.pages)));
            if (chunks_ != nullptr)
                chunks_->addChunkHolder(chunk.id, self_);
        }
    }
    // The producing machine has it locally by construction.
    local_[k] = std::move(image);
    ctx_.stats().incr(metrics::kSnapshotImagesPublished);
}

const std::vector<ImageChunk> &
ImageStore::chunkManifestFor(const std::string &k, const FuncImage &image)
{
    auto it = chunk_manifests_.find(k);
    if (it == chunk_manifests_.end() ||
        it->second.first != image.generation()) {
        chunk_manifests_[k] = {
            image.generation(),
            chunkImage(image, ctx_.costs(),
                       chunk_config_.sharedLibFraction)};
        it = chunk_manifests_.find(k);
    }
    return it->second.second;
}

void
ImageStore::applyCacheResult(const TieredChunkCache::Result &result)
{
    if (result.demotions > 0)
        ctx_.stats().incr(metrics::kImageChunksDemotions,
                          static_cast<std::int64_t>(result.demotions));
    for (ChunkId id : result.dropped) {
        ctx_.stats().incr(metrics::kImageChunksEvictions);
        if (chunks_ != nullptr)
            chunks_->dropChunkHolder(id, self_);
    }
}

bool
ImageStore::staleLocal(const std::string &k) const
{
    if (replicas_ == nullptr)
        return false;
    auto it = local_stamp_.find(k);
    if (it == local_stamp_.end())
        return false;
    return it->second != replicas_->keyVersion(k);
}

net::Fabric &
ImageStore::fabric()
{
    if (fabric_ != nullptr)
        return *fabric_;
    // Standalone machines (no Cluster) route through an owned fabric in
    // flat-compat mode: the transfer charges the legacy per-MiB formula
    // bit for bit.
    if (!own_fabric_)
        own_fabric_ = std::make_unique<net::Fabric>();
    return *own_fabric_;
}

void
ImageStore::transferImage(const std::string &k, const FuncImage &image,
                          trace::TraceContext trace)
{
    net::Fabric &net = fabric();
    const std::size_t bytes = mem::bytesForPages(image.totalPages());
    if (!net.config().modelTransfers) {
        // Flat-compat: one whole-image transfer, identical to the old
        // chargeCounted(networkFetchPerMiB * mib) charge.
        net.transfer(ctx_, net::kOriginStorage, self_, bytes,
                     "func-image", trace);
        return;
    }

    // Modeled fetch: pick the nearest replica (P2P), fall back to the
    // origin repository, and stream the image in chunks so a link
    // failure costs one chunk retry, not the whole image.
    net::NodeId source = net::kOriginStorage;
    if (net.config().p2pImages && replicas_ != nullptr) {
        if (auto peer = replicas_->nearestReplica(k, self_)) {
            if (injector_ != nullptr &&
                injector_->shouldFail(faults::FaultSite::ReplicaMiss,
                                      ctx_.stats())) {
                // The advertised copy is gone (evicted, machine down):
                // unadvertise it and stream from origin instead.
                replicas_->dropReplica(k, *peer);
                ctx_.stats().incr(metrics::kSnapshotReplicaMisses);
            } else {
                source = *peer;
                ctx_.stats().incr(metrics::kSnapshotP2pFetches);
            }
        }
    }

    const std::size_t chunk_bytes = mem::bytesForPages(kFetchChunkPages);
    for (std::size_t off = 0; off < bytes; off += chunk_bytes) {
        const std::size_t n = std::min(chunk_bytes, bytes - off);
        if (injector_ != nullptr &&
            injector_->shouldFail(faults::FaultSite::NetLink,
                                  ctx_.stats())) {
            // The link to the source dropped this chunk: burn the
            // attempt timeout, reroute the rest of the stream to
            // origin, and retry the chunk (which always succeeds, so
            // the fetch itself keeps its all-or-nothing contract).
            ctx_.charge(faults::kAttemptTimeout);
            ctx_.stats().incr(metrics::kNetLinkReroutes);
            source = net::kOriginStorage;
        }
        net.transfer(ctx_, source, self_, n, "image-chunk", trace);
    }
    if (replicas_ != nullptr)
        replicas_->addReplica(k, self_);
}

void
ImageStore::transferChunks(const std::string &k, const FuncImage &image,
                           trace::TraceContext trace)
{
    net::Fabric &net = fabric();
    const sim::CostModel &costs = ctx_.costs();
    const std::vector<ImageChunk> &chunks = chunkManifestFor(k, image);

    // One batched chunk-directory consultation covers the whole fetch,
    // and the content-addressing bookkeeping (fingerprints, manifest
    // walk) is charged per image page.
    ctx_.charge(costs.chunkDirectoryLookup);
    const auto pages = static_cast<std::int64_t>(image.totalPages());
    ctx_.chargeCounted(metrics::kImageChunksPagesHashed,
                       costs.chunkHashPerPage * pages, pages);

    std::int64_t ram_hits = 0, ssd_hits = 0, peer_hits = 0,
                 origin_fetches = 0;
    std::size_t transferred = 0, saved = 0;
    // One ReplicaMiss draw per fetch, like the whole-image path: the
    // first stale chunk advert reroutes the rest of this fetch to
    // origin (content addressing makes the retry always safe).
    bool peer_checked = false;
    bool peers_usable = true;
    std::vector<ChunkId> fetched;
    fetched.reserve(chunks.size());
    for (const ImageChunk &chunk : chunks) {
        const std::size_t bytes = mem::bytesForPages(chunk.pages);
        const double mib =
            static_cast<double>(bytes) / (1024.0 * 1024.0);
        switch (chunk_cache_.tierOf(chunk.id)) {
          case ChunkTier::Ram:
            // Assemble from the RAM tier: memory-speed copy into the
            // image mapping.
            ctx_.charge(costs.ramCacheStreamPerMiB * mib);
            chunk_cache_.touch(chunk.id);
            ++ram_hits;
            saved += bytes;
            continue;
          case ChunkTier::Ssd:
            // Sequential read off the NVMe cache partition, then the
            // chunk is hot again: promote it back to RAM.
            ctx_.charge(costs.ssdCacheReadSetup +
                        costs.ssdCacheStreamPerMiB * mib);
            applyCacheResult(chunk_cache_.insert(chunk.id, bytes));
            ++ssd_hits;
            saved += bytes;
            continue;
          case ChunkTier::None:
            break;
        }
        net::NodeId source = net::kOriginStorage;
        if (chunks_ != nullptr && peers_usable) {
            if (auto holder =
                    chunks_->nearestChunkHolder(chunk.id, self_)) {
                if (!peer_checked && injector_ != nullptr &&
                    injector_->shouldFail(faults::FaultSite::ReplicaMiss,
                                          ctx_.stats())) {
                    // The advertised holder lost the chunk (evicted,
                    // died) before serving it: unadvertise and stream
                    // this fetch from origin.
                    chunks_->dropChunkHolder(chunk.id, *holder);
                    ctx_.stats().incr(metrics::kImageChunksReplicaMisses);
                    peers_usable = false;
                } else {
                    source = *holder;
                }
                peer_checked = true;
            }
        }
        if (injector_ != nullptr &&
            injector_->shouldFail(faults::FaultSite::NetLink,
                                  ctx_.stats())) {
            // Same contract as the whole-image stream: burn the
            // attempt timeout, reroute the rest to origin, retry the
            // chunk (always succeeds).
            ctx_.charge(faults::kAttemptTimeout);
            ctx_.stats().incr(metrics::kNetLinkReroutes);
            peers_usable = false;
            source = net::kOriginStorage;
        }
        if (net.config().modelTransfers) {
            net.transfer(ctx_, source, self_, bytes, "image-chunk",
                         trace);
        } else {
            // Flat-compat fabrics round a transfer up to a whole MiB;
            // that would erase the dedup savings, so chunk mode
            // charges the modeled rtt + streaming split directly.
            ctx_.charge(net.rtt(source, self_, costs) +
                        net.streamCost(source, bytes, costs));
        }
        if (source == net::kOriginStorage)
            ++origin_fetches;
        else
            ++peer_hits;
        transferred += bytes;
        applyCacheResult(chunk_cache_.insert(chunk.id, bytes));
        fetched.push_back(chunk.id);
    }
    if (chunks_ != nullptr) {
        for (ChunkId id : fetched)
            chunks_->addChunkHolder(id, self_);
    }
    if (replicas_ != nullptr)
        replicas_->addReplica(k, self_);

    sim::StatRegistry &stats = ctx_.stats();
    stats.incr(metrics::kImageChunksRamHits, ram_hits);
    stats.incr(metrics::kImageChunksSsdHits, ssd_hits);
    stats.incr(metrics::kImageChunksPeerHits, peer_hits);
    stats.incr(metrics::kImageChunksOriginFetches, origin_fetches);
    stats.incr(metrics::kImageChunksBytesTransferred,
               static_cast<std::int64_t>(transferred));
    stats.incr(metrics::kImageChunksBytesSaved,
               static_cast<std::int64_t>(saved));

    // Windowed obs feed: dedup ratio, per-tier hit rates and the bytes
    // that never crossed the network, per fetch. win.* series never
    // appear in writeJson snapshots, so these are byte-compat free.
    const double total_bytes =
        static_cast<double>(mem::bytesForPages(image.totalPages()));
    const double floor_bytes =
        static_cast<double>(mem::bytesForPages(1));
    const double nchunks =
        static_cast<double>(std::max<std::size_t>(chunks.size(), 1));
    const sim::SimTime now = ctx_.now();
    stats.observeWindowed(
        metrics::kWinImageDedupRatio, now,
        total_bytes /
            std::max(static_cast<double>(transferred), floor_bytes));
    stats.observeWindowed(metrics::kWinImageHitRateRam, now,
                          static_cast<double>(ram_hits) / nchunks);
    stats.observeWindowed(metrics::kWinImageHitRateSsd, now,
                          static_cast<double>(ssd_hits) / nchunks);
    stats.observeWindowed(metrics::kWinImageHitRatePeer, now,
                          static_cast<double>(peer_hits) / nchunks);
    stats.observeWindowed(metrics::kWinImageSavedMib, now,
                          static_cast<double>(saved) /
                              (1024.0 * 1024.0));
}

std::shared_ptr<FuncImage>
ImageStore::fetch(const std::string &function_name, ImageFormat format,
                  trace::TraceContext trace)
{
    const std::string k = key(function_name, format);
    auto lit = local_.find(k);
    if (lit != local_.end()) {
        if (staleLocal(k)) {
            // A republish replaced this key cluster-wide since we
            // cached it: drop the stale copy and refetch.
            local_.erase(lit);
            ctx_.stats().incr(metrics::kImageFetchStaleDrops);
        } else {
            ctx_.stats().incr(metrics::kSnapshotImageLocalHits);
            ctx_.stats().incr(metrics::kImageFetchLocalHits);
            return lit->second;
        }
    }
    auto rit = remote_.find(k);
    if (rit == remote_.end())
        return nullptr;
    if (injector_ != nullptr &&
        injector_->shouldFail(faults::FaultSite::ImageFetch,
                              ctx_.stats())) {
        // The transfer dies mid-flight: the attempt costs its timeout
        // and leaves no local copy.
        ctx_.charge(faults::kAttemptTimeout);
        return nullptr;
    }
    // Remote fetch over the fabric, then validate the manifest.
    if (chunk_config_.enabled)
        transferChunks(k, *rit->second, trace);
    else
        transferImage(k, *rit->second, trace);
    ctx_.stats().incr(metrics::kSnapshotImageRemoteFetches);
    ctx_.stats().incr(metrics::kImageFetchRemote);
    ctx_.charge(ctx_.costs().imageManifestParse);
    local_[k] = rit->second;
    if (replicas_ != nullptr)
        local_stamp_[k] = replicas_->keyVersion(k);
    return rit->second;
}

bool
ImageStore::publishedRemotely(const std::string &function_name,
                              ImageFormat format) const
{
    return remote_.contains(key(function_name, format));
}

bool
ImageStore::cachedLocally(const std::string &function_name,
                          ImageFormat format) const
{
    return local_.contains(key(function_name, format));
}

void
ImageStore::evictLocal(const std::string &function_name,
                       ImageFormat format)
{
    if (local_.erase(key(function_name, format)) > 0)
        ctx_.stats().incr(metrics::kImageEvictions);
}

std::size_t
ImageStore::residentBytes() const
{
    std::size_t bytes = chunk_cache_.ramBytes();
    for (const auto &[k, image] : local_)
        bytes += mem::bytesForPages(image->file().residentPages());
    return bytes;
}

std::size_t
ImageStore::relieveMemoryPressure()
{
    const std::size_t before = chunk_cache_.ramBytes();
    applyCacheResult(chunk_cache_.demoteAll());
    return before - chunk_cache_.ramBytes();
}

bool
verifyImage(sim::SimContext &ctx, const FuncImage &image)
{
    const auto pages = static_cast<std::int64_t>(image.totalPages());
    ctx.chargeCounted(metrics::kSnapshotPagesChecksummed,
                      ctx.costs().checksumPerPage * pages, pages);
    if (image.corrupted()) {
        ctx.stats().incr(metrics::kSnapshotCorruptImagesDetected);
        return false;
    }
    return true;
}

} // namespace catalyzer::snapshot
