/**
 * @file
 * The metric catalog: every counter, histogram and windowed series the
 * simulator emits, declared once with its kind, unit, owning layer and
 * meaning.
 *
 * Each entry becomes a pre-resolved handle, metrics::k<Id>, whose slot
 * is the entry's index here, so an increment through it is one indexed
 * add into the registry's flat slot array. Families (a name prefix
 * ending in '.') cover names completed at run time, such as
 * boot.fallback.<from>_<to>; a family's member() resolves one member to
 * a handle once, for the caller to keep.
 *
 * Adding a metric: add one line to CATALYZER_METRICS below and use its
 * handle at the emitting site. tools/check_metric_sites.py rejects a
 * string-literal metric name at a stats call site anywhere else in
 * src/, and an entry whose handle no src/ file names; `trace_report
 * --list-metrics` dumps this table.
 */

#ifndef CATALYZER_SIM_METRIC_CATALOG_H
#define CATALYZER_SIM_METRIC_CATALOG_H

#include <cstdint>
#include <iosfwd>
#include <span>

#include "sim/stats.h"

// clang-format off
/**
 * M(Id, Kind, name, unit, layer, help) declares one metric;
 * F(Id, Kind, prefix, unit, layer, help) declares a family.
 */
#define CATALYZER_METRICS(M, F)                                              \
    /* hostos */                                                             \
    M(HostSpawns, Counter, "host.spawns", "count", "hostos", "sandbox processes spawned") \
    M(HostSforks, Counter, "host.sforks", "count", "hostos", "sfork() calls (template fork)") \
    M(HostNamespaceSetups, Counter, "host.namespace_setups", "count", "hostos", "namespace sets created for a child") \
    M(KvmCreateVm, Counter, "kvm.create_vm", "count", "hostos", "KVM VMs created") \
    M(KvmKvcalloc, Counter, "kvm.kvcalloc", "count", "hostos", "KVM kvcalloc calls on VM creation") \
    M(KvmCreateVcpu, Counter, "kvm.create_vcpu", "count", "hostos", "KVM vCPUs created") \
    M(KvmSetMemoryRegion, Counter, "kvm.set_memory_region", "count", "hostos", "KVM memory-region installs") \
    /* mem */                                                                \
    M(MemMmapCalls, Counter, "mem.mmap_calls", "count", "mem", "mmap calls") \
    M(MemMunmapCalls, Counter, "mem.munmap_calls", "count", "mem", "munmap calls") \
    M(MemBaseAttach, Counter, "mem.base_attach", "count", "mem", "Base-EPT attachments") \
    M(MemBaseFills, Counter, "mem.base_fills", "pages", "mem", "Base-EPT pages filled from the backing file") \
    M(MemBasePrefetchFills, Counter, "mem.base_prefetch_fills", "count", "mem", "Base-EPT fills issued by the prefetcher") \
    M(MemCowFaults, Counter, "mem.cow_faults", "pages", "mem", "copy-on-write faults that copied a frame") \
    M(MemCowReuse, Counter, "mem.cow_reuse", "pages", "mem", "copy-on-write faults that reused a sole-owner frame") \
    M(MemForkCowPages, Counter, "mem.fork_cow_pages", "pages", "mem", "pages shared copy-on-write by fork") \
    M(MemMinorFaultsAnon, Counter, "mem.minor_faults_anon", "pages", "mem", "demand-zero anonymous faults") \
    M(MemMinorFaultsFile, Counter, "mem.minor_faults_file", "pages", "mem", "file-backed minor faults") \
    M(MemPageCacheHits, Counter, "mem.page_cache_hits", "count", "mem", "page-cache hits") \
    M(MemPageCacheFills, Counter, "mem.page_cache_fills", "count", "mem", "page-cache fills on a miss") \
    M(MemPageCachePrefetchFills, Counter, "mem.page_cache_prefetch_fills", "count", "mem", "page-cache fills issued by the prefetcher") \
    M(MemPageCacheStorageReads, Counter, "mem.page_cache_storage_reads", "count", "mem", "page-cache misses read from storage") \
    /* vfs */                                                                \
    M(VfsOpens, Counter, "vfs.opens", "count", "vfs", "files opened") \
    M(VfsGoferRpcs, Counter, "vfs.gofer_rpcs", "count", "vfs", "Gofer RPCs") \
    M(VfsDups, Counter, "vfs.dups", "count", "vfs", "eager descriptor dups") \
    M(VfsLazyDups, Counter, "vfs.lazy_dups", "count", "vfs", "lazy descriptor dups") \
    M(VfsDupBursts, Counter, "vfs.dup_bursts", "count", "vfs", "batched descriptor dup bursts") \
    M(VfsFdtableExpansions, Counter, "vfs.fdtable_expansions", "count", "vfs", "fd-table expansions") \
    M(VfsOverlayUpperOpens, Counter, "vfs.overlay_upper_opens", "count", "vfs", "overlay opens served by the upper layer") \
    M(VfsOverlayCopyups, Counter, "vfs.overlay_copyups", "count", "vfs", "overlay copy-ups") \
    M(VfsOverlayCreates, Counter, "vfs.overlay_creates", "count", "vfs", "overlay file creates") \
    M(VfsOverlayWrites, Counter, "vfs.overlay_writes", "count", "vfs", "overlay writes") \
    M(VfsOverlayClones, Counter, "vfs.overlay_clones", "count", "vfs", "overlay rootfs clones") \
    /* guest */                                                              \
    M(GuestSentryInits, Counter, "guest.sentry_inits", "count", "guest", "guest kernel (Sentry) initializations") \
    M(GuestMounts, Counter, "guest.mounts", "count", "guest", "guest filesystem mounts") \
    M(GuestAllowedSyscalls, Counter, "guest.allowed_syscalls", "count", "guest", "syscalls passed to the host") \
    M(GuestHandledSyscalls, Counter, "guest.handled_syscalls", "count", "guest", "syscalls handled in the guest kernel") \
    M(GuestDeniedSyscalls, Counter, "guest.denied_syscalls", "count", "guest", "syscalls denied by policy") \
    M(GuestFuncEntryTraps, Counter, "guest.func_entry_traps", "count", "guest", "func-entry point traps") \
    M(GuestGoRuntimeStarts, Counter, "guest.go_runtime_starts", "count", "guest", "Go runtime starts") \
    M(GuestBlockingThreads, Counter, "guest.blocking_threads", "count", "guest", "blocking runtime threads created") \
    M(GuestTransientEntries, Counter, "guest.transient_entries", "count", "guest", "entries into the transient single-thread state") \
    M(GuestTransientExpands, Counter, "guest.transient_expands", "count", "guest", "expansions out of the transient single-thread state") \
    /* snapshot */                                                           \
    M(SnapshotImagesBuilt, Counter, "snapshot.images_built", "count", "snapshot", "func-images captured") \
    M(SnapshotImagesCompiled, Counter, "snapshot.images_compiled", "count", "sandbox", "func-images compiled offline") \
    M(SnapshotImagesPublished, Counter, "snapshot.images_published", "count", "snapshot", "func-images published to the image store") \
    M(SnapshotSerializedObjects, Counter, "snapshot.serialized_objects", "objects", "snapshot", "kernel objects serialized at capture") \
    M(SnapshotCompressedPages, Counter, "snapshot.compressed_pages", "pages", "snapshot", "pages compressed at capture") \
    M(SnapshotArenaObjects, Counter, "snapshot.arena_objects", "objects", "snapshot", "objects laid into a separated-state arena") \
    M(SnapshotImagePagesWritten, Counter, "snapshot.image_pages_written", "pages", "snapshot", "image pages written at capture") \
    M(SnapshotIoReconnects, Counter, "snapshot.io_reconnects", "count", "snapshot", "I/O connections re-established") \
    M(SnapshotIoReconnectRetries, Counter, "snapshot.io_reconnect_retries", "count", "snapshot", "I/O reconnect retries") \
    M(SnapshotIoReconnectFailures, Counter, "snapshot.io_reconnect_failures", "count", "snapshot", "I/O reconnects that exhausted their retries") \
    M(SnapshotImageLocalHits, Counter, "snapshot.image_local_hits", "count", "snapshot", "image fetches served by the local store") \
    M(SnapshotImageRemoteFetches, Counter, "snapshot.image_remote_fetches", "count", "snapshot", "image fetches that crossed the network") \
    M(SnapshotReplicaMisses, Counter, "snapshot.replica_misses", "count", "snapshot", "P2P replicas that were gone on fetch") \
    M(SnapshotP2pFetches, Counter, "snapshot.p2p_fetches", "count", "snapshot", "image fetches served by a peer") \
    M(SnapshotManifestsPublished, Counter, "snapshot.manifests_published", "count", "snapshot", "working-set manifests published") \
    M(SnapshotManifestFetches, Counter, "snapshot.manifest_fetches", "count", "snapshot", "working-set manifest fetches") \
    M(SnapshotManifestsCorrupted, Counter, "snapshot.manifests_corrupted", "count", "snapshot", "corrupt working-set manifests dropped") \
    M(SnapshotPagesChecksummed, Counter, "snapshot.pages_checksummed", "pages", "snapshot", "image pages checksummed on fetch") \
    M(SnapshotCorruptImagesDetected, Counter, "snapshot.corrupt_images_detected", "count", "snapshot", "corrupt images caught by checksum") \
    M(RestoreEagerRestores, Counter, "restore.eager_restores", "count", "snapshot", "baseline eager restores") \
    M(RestoreDecompressedPages, Counter, "restore.decompressed_pages", "pages", "snapshot", "pages decompressed on restore") \
    M(RestoreDeserializedObjects, Counter, "restore.deserialized_objects", "objects", "snapshot", "kernel objects deserialized on restore") \
    M(RestoreRedoneObjects, Counter, "restore.redone_objects", "objects", "snapshot", "objects whose side effects were redone on restore") \
    /* image (chunk store and image fetch) */                                \
    M(ImageEvictions, Counter, "image.evictions", "count", "snapshot", "whole images evicted from a local store") \
    M(ImageFetchLocalHits, Counter, "image.fetch.local_hits", "count", "snapshot", "image fetches served locally") \
    M(ImageFetchRemote, Counter, "image.fetch.remote", "count", "snapshot", "image fetches from a remote source") \
    M(ImageFetchStaleDrops, Counter, "image.fetch.stale_drops", "count", "snapshot", "local images dropped as stale on fetch") \
    M(ImageChunksPagesHashed, Counter, "image.chunks.pages_hashed", "pages", "snapshot", "pages hashed into content chunks") \
    M(ImageChunksRamHits, Counter, "image.chunks.ram_hits", "chunks", "snapshot", "chunks served from the RAM tier") \
    M(ImageChunksSsdHits, Counter, "image.chunks.ssd_hits", "chunks", "snapshot", "chunks served from the SSD tier") \
    M(ImageChunksPeerHits, Counter, "image.chunks.peer_hits", "chunks", "snapshot", "chunks fetched from a peer") \
    M(ImageChunksOriginFetches, Counter, "image.chunks.origin_fetches", "chunks", "snapshot", "chunks fetched from origin storage") \
    M(ImageChunksBytesTransferred, Counter, "image.chunks.bytes_transferred", "bytes", "snapshot", "chunk bytes moved over the network") \
    M(ImageChunksBytesSaved, Counter, "image.chunks.bytes_saved", "bytes", "snapshot", "image bytes not transferred thanks to dedup") \
    M(ImageChunksDemotions, Counter, "image.chunks.demotions", "chunks", "snapshot", "chunks demoted from RAM to SSD") \
    M(ImageChunksEvictions, Counter, "image.chunks.evictions", "count", "snapshot", "chunk-store eviction passes that dropped chunks") \
    M(ImageChunksReplicaMisses, Counter, "image.chunks.replica_misses", "count", "snapshot", "chunk holders that were gone on fetch") \
    M(WinImageDedupRatio, Windowed, "win.image.dedup_ratio", "ratio", "snapshot", "whole-image bytes over transferred bytes, per fetch") \
    M(WinImageHitRateRam, Windowed, "win.image.hit_rate.ram", "ratio", "snapshot", "share of a fetch's chunks served from RAM") \
    M(WinImageHitRateSsd, Windowed, "win.image.hit_rate.ssd", "ratio", "snapshot", "share of a fetch's chunks served from SSD") \
    M(WinImageHitRatePeer, Windowed, "win.image.hit_rate.peer", "ratio", "snapshot", "share of a fetch's chunks served by peers") \
    M(WinImageSavedMib, Windowed, "win.image.saved_mib", "MiB", "snapshot", "bytes a fetch did not transfer") \
    /* prefetch */                                                           \
    M(PrefetchPagesPrefetched, Counter, "prefetch.pages_prefetched", "pages", "prefetch", "pages prefetched from a working-set manifest") \
    M(PrefetchPagesAlreadyResident, Counter, "prefetch.pages_already_resident", "pages", "prefetch", "manifest pages already resident") \
    M(PrefetchStorageReads, Counter, "prefetch.storage_reads", "count", "prefetch", "storage reads issued by the prefetcher") \
    M(PrefetchBatches, Counter, "prefetch.batches", "count", "prefetch", "prefetch batches") \
    M(PrefetchTracesRecorded, Counter, "prefetch.traces_recorded", "count", "prefetch", "restore fault traces merged into a manifest") \
    M(PrefetchDemandFaultsAvoided, Counter, "prefetch.demand_faults_avoided", "pages", "prefetch", "faults the prefetch made unnecessary") \
    M(PrefetchWastedPages, Counter, "prefetch.wasted_pages", "pages", "prefetch", "prefetched pages never touched") \
    M(PrefetchManifestHitRate, Histogram, "prefetch.manifest_hit_rate", "ratio", "prefetch", "share of a restore's faults the manifest covered") \
    M(PrefetchManifestHits, Counter, "prefetch.manifest_hits", "count", "catalyzer", "boots that found a usable manifest") \
    M(PrefetchManifestMisses, Counter, "prefetch.manifest_misses", "count", "catalyzer", "boots without a usable manifest") \
    M(PrefetchManifestStale, Counter, "prefetch.manifest_stale", "count", "catalyzer", "manifests dropped for a stale image generation") \
    /* net and remote fork */                                                \
    M(NetTransfers, Counter, "net.transfers", "count", "net", "fabric transfers") \
    M(NetBytes, Counter, "net.bytes", "bytes", "net", "bytes moved over the fabric") \
    M(NetCrossRackTransfers, Counter, "net.cross_rack_transfers", "count", "net", "fabric transfers that crossed racks") \
    M(NetLinkRetries, Counter, "net.link_retries", "count", "net", "retried link transfers") \
    M(NetLinkReroutes, Counter, "net.link_reroutes", "count", "snapshot", "image fetches rerouted around a failed link") \
    M(WinNetBytes, Windowed, "win.net.bytes", "bytes", "net", "bytes per fabric transfer") \
    M(RemotePullBatches, Counter, "remote.pull_batches", "count", "net", "remote-fork page-pull batches") \
    M(RemotePagePulls, Counter, "remote.page_pulls", "pages", "net", "pages pulled from a lender") \
    M(RemotePeerLost, Counter, "remote.peer_lost", "count", "net", "lender machines lost mid-borrow") \
    M(RemotePrefetchPages, Counter, "remote.prefetch_pages", "pages", "catalyzer", "stable pages pulled eagerly on remote sfork") \
    M(RemoteMirrorInvalidated, Counter, "remote.mirror_invalidated", "count", "catalyzer", "remote mirrors dropped for a new lender generation") \
    M(RemoteForkHits, Counter, "remote.fork_hits", "count", "catalyzer", "boots served by a peer's template") \
    /* catalyzer */                                                          \
    M(CatalyzerColdBoots, Counter, "catalyzer.cold_boots", "count", "catalyzer", "Catalyzer cold (restore) boots") \
    M(CatalyzerWarmBoots, Counter, "catalyzer.warm_boots", "count", "catalyzer", "Catalyzer warm (Zygote) boots") \
    M(CatalyzerForkBoots, Counter, "catalyzer.fork_boots", "count", "catalyzer", "Catalyzer sfork boots") \
    M(CatalyzerRemoteForkBoots, Counter, "catalyzer.remote_fork_boots", "count", "catalyzer", "Catalyzer remote-sfork boots") \
    M(CatalyzerLangTemplateBoots, Counter, "catalyzer.lang_template_boots", "count", "catalyzer", "boots from a language-runtime template") \
    M(CatalyzerTemplatesBuilt, Counter, "catalyzer.templates_built", "count", "catalyzer", "function templates built") \
    M(CatalyzerLangTemplatesBuilt, Counter, "catalyzer.lang_templates_built", "count", "catalyzer", "language-runtime templates built") \
    M(CatalyzerTemplateDeaths, Counter, "catalyzer.template_deaths", "count", "catalyzer", "templates lost to injected death") \
    M(CatalyzerImageFetchRetries, Counter, "catalyzer.image_fetch_retries", "count", "catalyzer", "image fetches retried") \
    M(CatalyzerImageRebuilds, Counter, "catalyzer.image_rebuilds", "count", "catalyzer", "images rebuilt locally after a failed fetch") \
    M(CatalyzerImageRefetchAfterRebuild, Counter, "catalyzer.image_refetch_after_rebuild", "count", "catalyzer", "remote re-fetches after a local rebuild") \
    M(CatalyzerPointerFixups, Counter, "catalyzer.pointer_fixups", "relocations", "catalyzer", "relation-table pointer fixups") \
    M(CatalyzerIoCacheHits, Counter, "catalyzer.io_cache_hits", "count", "catalyzer", "boots that replayed the I/O cache") \
    M(CatalyzerIoCacheInvalidated, Counter, "catalyzer.io_cache_invalidated", "count", "catalyzer", "I/O caches dropped after a failed replay") \
    M(CatalyzerZygotesBuilt, Counter, "catalyzer.zygotes_built", "count", "catalyzer", "Zygotes built offline") \
    M(CatalyzerZygoteBuildAborts, Counter, "catalyzer.zygote_build_aborts", "count", "catalyzer", "Zygote builds aborted by a fault") \
    M(CatalyzerZygoteHits, Counter, "catalyzer.zygote_hits", "count", "catalyzer", "boots that took a pooled Zygote") \
    M(CatalyzerZygoteMisses, Counter, "catalyzer.zygote_misses", "count", "catalyzer", "boots that found the Zygote pool empty") \
    M(BootLatencyCatalyzerCold, Histogram, "boot.latency.Catalyzer-cold", "ms", "catalyzer", "Catalyzer cold boot latency") \
    M(BootLatencyCatalyzerWarm, Histogram, "boot.latency.Catalyzer-warm", "ms", "catalyzer", "Catalyzer warm boot latency") \
    M(BootLatencyCatalyzerSfork, Histogram, "boot.latency.Catalyzer-sfork", "ms", "catalyzer", "Catalyzer sfork boot latency") \
    M(BootLatencyCatalyzerRemoteSfork, Histogram, "boot.latency.Catalyzer-remote-sfork", "ms", "catalyzer", "Catalyzer remote-sfork boot latency") \
    M(BootLatencyCatalyzerLangTemplate, Histogram, "boot.latency.Catalyzer-lang-template", "ms", "catalyzer", "language-template boot latency") \
    F(BootLatency, Histogram, "boot.latency.", "ms", "sandbox", "boot latency per sandbox system") \
    M(BootFallbackIoEagerLazy, Counter, "boot.fallback.io_eager_lazy", "count", "catalyzer", "I/O-cache replays that fell back to lazy reconnection") \
    M(BenchBoots, Counter, "bench.boots", "count", "sandbox", "boots in the process (global registry only)") \
    /* sandbox */                                                            \
    M(ExecInvocations, Counter, "exec.invocations", "count", "sandbox", "handler invocations") \
    M(ExecLazyReconnects, Counter, "exec.lazy_reconnects", "count", "sandbox", "I/O connections reconnected on first use") \
    M(ExecStartupReconnects, Counter, "exec.startup_reconnects", "count", "sandbox", "I/O connections reconnected at startup") \
    /* platform */                                                           \
    M(PlatformInvocations, Counter, "platform.invocations", "count", "platform", "requests served") \
    M(PlatformBoots, Counter, "platform.boots", "count", "platform", "requests that booted an instance") \
    M(PlatformInstanceReuses, Counter, "platform.instance_reuses", "count", "platform", "requests served by an idle instance") \
    M(PlatformIdleExpired, Counter, "platform.idle_expired", "instances", "platform", "idle instances reaped by keep-alive") \
    M(PlatformBaseReclaims, Counter, "platform.base_reclaims", "count", "platform", "Base-EPT mappings reclaimed under pressure") \
    M(PlatformPrepareFailures, Counter, "platform.prepare_failures", "count", "platform", "offline preparations that hit a fault") \
    M(InvokeLatency, Histogram, "invoke.latency", "ms", "platform", "end-to-end request latency") \
    M(BootTierServed, Histogram, "boot.tier_served", "tier", "platform", "serving tier code (sfork 0, warm 1, cold 2, fresh 3, remote-sfork 4)") \
    F(BootFallback, Counter, "boot.fallback.", "count", "platform", "boot tier degradations, <from>_<to>") \
    M(WinTierServed, Windowed, "win.tier_served", "tier", "platform", "serving tier code per boot") \
    M(WinE2eMs, Windowed, "win.e2e_ms", "ms", "platform", "end-to-end request latency") \
    F(WinBootMsTier, Windowed, "win.boot_ms.tier.", "ms", "platform", "boot latency per serving tier") \
    F(WinBootMsFn, Windowed, "win.boot_ms.fn.", "ms", "platform", "boot latency per function") \
    M(WinPolicyHotSet, Windowed, "win.policy.hot_set", "functions", "platform", "functions in the boot policy's hot set") \
    M(WinPolicyTemplateBuilds, Windowed, "win.policy.template_builds", "count", "platform", "templates the boot policy built per tick") \
    M(WinPolicyTemplateDrops, Windowed, "win.policy.template_drops", "count", "platform", "templates the boot policy dropped per tick") \
    /* faults */                                                             \
    F(FaultsInjected, Counter, "faults.injected.", "count", "faults", "faults injected, per site") \
    F(FaultsRetries, Counter, "faults.retries.", "count", "faults", "fault retries, per site") \
    /* state regions */                                                      \
    M(StateCreates, Counter, "state.creates", "count", "state", "state regions created") \
    M(StateAttaches, Counter, "state.attaches", "count", "state", "state-region attachments") \
    M(StatePublishes, Counter, "state.publishes", "count", "state", "state-region versions published") \
    M(StatePublishedPages, Counter, "state.published_pages", "pages", "state", "dirty pages published") \
    M(StateTransfers, Counter, "state.transfers", "count", "state", "state regions moved between machines") \
    M(StateTransferBytes, Counter, "state.transfer_bytes", "bytes", "state", "bytes moved by state-region transfers") \
    M(StateRegionsResident, Counter, "state.regions_resident", "regions", "state", "state regions resident (a gauge: +1 in, -1 out)") \
    M(StateCowFaults, Counter, "state.cow_faults", "pages", "state", "copy-on-write faults on attached regions") \
    M(StateReadFaults, Counter, "state.read_faults", "pages", "state", "read faults on attached regions") \
    /* workflow */                                                           \
    M(ChainWorkflows, Counter, "chain.workflows", "count", "workflow", "workflow runs") \
    M(ChainHopsLocal, Counter, "chain.hops_local", "count", "workflow", "same-machine workflow hops") \
    M(ChainHopsRemote, Counter, "chain.hops_remote", "count", "workflow", "cross-machine workflow hops") \
    M(ChainE2eMs, Histogram, "chain.e2e_ms", "ms", "workflow", "workflow end-to-end latency") \
    M(WinChainE2eMs, Windowed, "win.chain.e2e_ms", "ms", "workflow", "workflow end-to-end latency")
// clang-format on

namespace catalyzer::metrics {

namespace detail {
/** Slot numbers: the catalog index of each entry. */
enum Slot : std::uint32_t
{
#define CATALYZER_METRIC_SLOT(id, ...) id,
    CATALYZER_METRICS(CATALYZER_METRIC_SLOT, CATALYZER_METRIC_SLOT)
#undef CATALYZER_METRIC_SLOT
    kCatalogSize
};
} // namespace detail

#define CATALYZER_METRIC_HANDLE(id, kind, ...)                               \
    inline constexpr sim::MetricHandle<sim::MetricKind::kind> k##id{         \
        detail::id};
#define CATALYZER_METRIC_FAMILY(id, kind, ...)                               \
    inline constexpr sim::MetricFamily<sim::MetricKind::kind> k##id{         \
        detail::id};
CATALYZER_METRICS(CATALYZER_METRIC_HANDLE, CATALYZER_METRIC_FAMILY)
#undef CATALYZER_METRIC_HANDLE
#undef CATALYZER_METRIC_FAMILY

/**
 * The counters every stateful-workflow artifact carries, in artifact
 * order: fig_chain's counters_aware/blind blocks list exactly these,
 * and trace_report --chain's fleet snapshot must touch each of them.
 */
inline constexpr sim::CounterHandle kChainArtifactCounters[] = {
    kChainWorkflows,
    kChainHopsLocal,
    kChainHopsRemote,
    kStateRegionsResident,
    kStateAttaches,
    kStatePublishes,
    kStateTransfers,
    kStateTransferBytes,
    kStateCowFaults,
    kStateReadFaults,
};

/** The catalog, slot order. */
std::span<const sim::MetricDef> catalog();

/**
 * The catalog as JSON, in name order: {"metrics": [{"name", "kind",
 * "unit", "layer", "family", "help"}, ...], "chain_artifact_counters":
 * [name, ...]}. A family's name is its prefix, ending in '.'; the last
 * list is kChainArtifactCounters, in its order.
 */
void writeCatalogJson(std::ostream &os);

} // namespace catalyzer::metrics

#endif // CATALYZER_SIM_METRIC_CATALOG_H
