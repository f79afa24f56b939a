/**
 * @file
 * Func-image storage: local cache in front of remote storage.
 *
 * The paper (Sec. 2.2, "Init-less booting") notes that func-images can
 * live in local or remote storage and that a platform must fetch the
 * image before its first cold boot. ImageStore models that: publishing
 * is free at boot time (offline), the first fetch on a machine pays the
 * network transfer, and later fetches hit the local cache.
 *
 * Images can also be integrity-checked before use: validation walks the
 * manifest checksums (charged per page) and a corrupted image is
 * rejected so the platform can fall back to a fresh boot and republish.
 *
 * With chunking enabled (ChunkStoreConfig::enabled, off by default) the
 * store becomes content-addressed: published images are cut into
 * content-defined chunks (chunk_store.h), and a fetch walks the tier
 * ladder RAM -> local SSD -> peer machine -> origin per chunk, paying
 * only for the chunks missing from every local tier. Cross-image
 * redundancy (the shared language runtime, shared libraries) then
 * makes a second same-language function nearly free to fetch. The
 * default keeps the whole-image path bit-identical to the flat
 * per-MiB model.
 */

#ifndef CATALYZER_SNAPSHOT_IMAGE_STORE_H
#define CATALYZER_SNAPSHOT_IMAGE_STORE_H

#include <map>
#include <memory>
#include <string>

#include <vector>

#include "faults/fault_injector.h"
#include "net/fabric.h"
#include "sim/context.h"
#include "snapshot/chunk_store.h"
#include "snapshot/func_image.h"

namespace catalyzer::snapshot {

/** One machine's view of func-image storage. */
class ImageStore
{
  public:
    explicit ImageStore(sim::SimContext &ctx) : ctx_(ctx) {}

    /**
     * Publish an image to remote storage (checkpoint side, offline).
     * Replaces any previous image for the same function+format.
     */
    void publish(std::shared_ptr<FuncImage> image);

    /**
     * Fetch an image for @p function_name in @p format. The first fetch
     * on this machine pays the network transfer (per-MiB) plus manifest
     * validation; subsequent fetches are local. Returns nullptr if no
     * image was ever published, or when the injector fails the remote
     * transfer (the attempt still burns the retry policy's per-attempt
     * timeout; use publishedRemotely() to tell the two apart). With an
     * enabled @p trace, the fabric transfers of a remote fetch join the
     * caller's distributed trace (P2P chunk streams included).
     */
    std::shared_ptr<FuncImage> fetch(const std::string &function_name,
                                     ImageFormat format,
                                     trace::TraceContext trace = {});

    /** True if @p function_name was ever published in @p format. */
    bool publishedRemotely(const std::string &function_name,
                           ImageFormat format) const;

    /** True if a fetch would be served locally. */
    bool cachedLocally(const std::string &function_name,
                       ImageFormat format) const;

    /** Evict the local copy (e.g. cache pressure); remote copy stays. */
    void evictLocal(const std::string &function_name, ImageFormat format);

    std::size_t publishedCount() const { return remote_.size(); }
    std::size_t localCount() const { return local_.size(); }

    /** Turn on / tune content-addressed chunking (see chunk_store.h).
     *  Call before the first publish. */
    void configureChunks(const ChunkStoreConfig &config)
    {
        chunk_config_ = config;
        chunk_cache_.configure(config.ramBudgetBytes,
                               config.ssdBudgetBytes);
    }

    const ChunkStoreConfig &chunkConfig() const { return chunk_config_; }
    const TieredChunkCache &chunkCache() const { return chunk_cache_; }

    /**
     * Bytes of machine RAM this store holds: the chunk cache's RAM
     * tier plus the page-cache residency of locally cached images.
     * Counted into ServerlessPlatform::residentBytes so cached images
     * compete with templates and keep-alive instances for the memory
     * budget.
     */
    std::size_t residentBytes() const;

    /**
     * Memory-pressure hook (autoscaler): demote every RAM-tier chunk
     * to the SSD tier. Returns the bytes moved out of RAM.
     */
    std::size_t relieveMemoryPressure();

    /** Make remote fetches consult @p injector; nullptr disables
     *  injection. */
    void setFaultInjector(faults::FaultInjector *injector)
    {
        injector_ = injector;
    }

    /**
     * Route remote fetches through @p fabric as node @p self. With a
     * modeled fabric and a @p replicas directory, fetches stream in
     * chunks from the nearest replica (origin as fallback) and register
     * this machine as a new replica; a flat-compat fabric (and the
     * owned default used when none is attached) charges the legacy flat
     * per-MiB cost bit-identically.
     */
    void attachFabric(net::Fabric *fabric, net::NodeId self,
                      net::ReplicaDirectory *replicas = nullptr,
                      net::ChunkDirectory *chunks = nullptr)
    {
        fabric_ = fabric;
        self_ = self;
        replicas_ = replicas;
        chunks_ = chunks;
    }

  private:
    static std::string key(const std::string &name, ImageFormat format);

    /** The attached fabric, or the owned flat-compat default. */
    net::Fabric &fabric();

    /** Transfer one image's bytes, chunked when the fabric is modeled. */
    void transferImage(const std::string &k, const FuncImage &image,
                       trace::TraceContext trace);

    /** Content-addressed transfer: only chunks missing from every
     *  local tier cross the network. */
    void transferChunks(const std::string &k, const FuncImage &image,
                        trace::TraceContext trace);

    /** The image's chunk list, computed once per key+generation. */
    const std::vector<ImageChunk> &
    chunkManifestFor(const std::string &k, const FuncImage &image);

    /** Fold a cache reshuffle into counters + the chunk directory. */
    void applyCacheResult(const TieredChunkCache::Result &result);

    /** True when the cluster replaced this key since we cached it. */
    bool staleLocal(const std::string &k) const;

    sim::SimContext &ctx_;
    faults::FaultInjector *injector_ = nullptr;
    net::Fabric *fabric_ = nullptr;
    net::ReplicaDirectory *replicas_ = nullptr;
    net::ChunkDirectory *chunks_ = nullptr;
    net::NodeId self_ = 0;
    /** Flat-compat fabric used when no cluster fabric is attached. */
    std::unique_ptr<net::Fabric> own_fabric_;
    std::map<std::string, std::shared_ptr<FuncImage>> remote_;
    std::map<std::string, std::shared_ptr<FuncImage>> local_;
    ChunkStoreConfig chunk_config_;
    TieredChunkCache chunk_cache_;
    /** Chunk lists of published images, keyed by key + generation. */
    std::map<std::string,
             std::pair<std::uint64_t, std::vector<ImageChunk>>>
        chunk_manifests_;
    /** Directory version stamp each local copy was cached under. */
    std::map<std::string, std::uint64_t> local_stamp_;
};

/**
 * Verify an image's section checksums. Charges the per-page checksum
 * cost; returns false for images flagged corrupted.
 */
bool verifyImage(sim::SimContext &ctx, const FuncImage &image);

} // namespace catalyzer::snapshot

#endif // CATALYZER_SNAPSHOT_IMAGE_STORE_H
