/**
 * @file
 * Calibrated cost model for the simulated host.
 *
 * Every latency constant in the library lives here, in one place, so the
 * calibration against the paper's measurements (DESIGN.md section 5) can
 * be audited and re-tuned. Mechanism code never hard-codes a latency; it
 * charges a named cost scaled by the operation counts its real data
 * structures produce.
 *
 * Anchors (Catalyzer paper, ASPLOS'20): Fig. 2 boot breakdown, Fig. 16
 * host micro-costs, Sec. 3.2 object counts, Sec. 6.2 startup latencies.
 */

#ifndef CATALYZER_SIM_COST_MODEL_H
#define CATALYZER_SIM_COST_MODEL_H

#include "sim/time.h"

namespace catalyzer::sim {

using namespace time_literals;

/**
 * All tunable latency constants. Defaults reproduce the paper's
 * experimental machine (8-core i7-7700, SSD); serverProfile() reproduces
 * the 96-core Ant Financial server used for the end-to-end runs.
 */
struct CostModel
{
    //
    // Host kernel syscalls (Fig. 16d and Sec. 6.7).
    //
    /** Base user->kernel crossing plus trivial syscall work. */
    SimTime syscallBase = 800_ns;
    /** dup/dup2 on a table with free slots. */
    SimTime dupFast = 1.2_us;
    /** fdtable expansion: reallocation plus RCU sync. Tail reaches 30ms. */
    SimTime dupExpandTypical = 0.9_ms;
    SimTime dupExpandWorst = 30_ms;
    /** Probability that an expansion hits the slow reclaim path. */
    double dupExpandBurstProb = 0.25;
    /** open() on a local file through the host VFS. */
    SimTime openFile = 14_us;
    /** connect()/accept() for a local socket. */
    SimTime openSocket = 210_us;
    /** stat() */
    SimTime statFile = 4_us;
    /** One mount() call. */
    SimTime mountFs = 450_us;
    /** Gofer RPC round trip (9P-style) for one I/O request. */
    SimTime goferRpc = 55_us;

    //
    // KVM / virtualization (Fig. 16b, 16c).
    //
    SimTime kvmCreateVm = 850_us;
    SimTime kvmCreateVcpu = 320_us;
    /** kvcalloc for VM bookkeeping, uncached vs with the dedicated cache. */
    SimTime kvmKvcalloc = 260_us;
    SimTime kvmKvcallocCached = 8_us;
    /** Number of kvcalloc calls per VM setup (Fig. 16b sweeps 1..6). */
    int kvmKvcallocCalls = 6;
    /** set_user_memory_region: fixed part. */
    SimTime kvmSetRegionBase = 45_us;
    /** Incremental cost per already-registered region, PML enabled. */
    SimTime kvmSetRegionPerRegionPml = 60_us;
    /** Same with PML disabled (about 10x cheaper, Fig. 16c). */
    SimTime kvmSetRegionPerRegionNoPml = 6_us;
    /** PML buffer (re)allocation when a region is added with PML on. */
    SimTime kvmPmlFlushPerVcpu = 60_us;
    /** Number of memory regions a gVisor-style sandbox registers. */
    int kvmMemoryRegions = 11;

    //
    // Page-level memory (mem/).
    //
    /** Establish one VMA (mmap bookkeeping, no population). */
    SimTime mmapRegion = 2.8_us;
    /** Populate page-table entries, charged per 512-entry batch. */
    SimTime ptePopulatePerBatch = 1.7_us;
    /** Copy-on-write fault: allocate a frame and copy 4 KiB. */
    SimTime cowFault = 2.4_us;
    /** Demand fault backed by an uncompressed file (page cache hit). */
    SimTime demandFaultFile = 3.1_us;
    /** Demand fault from page cache miss (SSD read, 4 KiB). */
    SimTime demandFaultFileCold = 86_us;
    /** Demand fault on anonymous zero page. */
    SimTime demandFaultAnon = 1.0_us;
    /** memcpy of one 4 KiB page. */
    SimTime memcpyPerPage = 420_ns;
    /** Probability a cold-boot file-backed fault misses the page cache. */
    double pageCacheMissColdBoot = 0.02;

    //
    // Checkpoint image handling (snapshot/).
    //
    /** gzip-style decompression of one 4 KiB page (restore path). */
    SimTime decompressPerPage = 1.55_us;
    /** Compression (checkpoint path, off the critical path). */
    SimTime compressPerPage = 6.4_us;
    /** Deserialize one guest-kernel metadata object (protobuf-style). */
    SimTime deserializeObject = 1.38_us;
    /** Serialize one object at checkpoint time. */
    SimTime serializeObject = 1.1_us;
    /** Re-do creation of one non-I/O kernel object on restore. */
    SimTime redoObject = 0.68_us;
    /** Patch one pointer through the relation table (separated format). */
    SimTime relationFixupPerPointer = 30_ns;
    /**
     * Non-parallelizable part of establishing one non-I/O kernel object
     * during separated state recovery (allocation/registration barriers).
     */
    SimTime redoObjectSequentialPart = 200_ns;
    /** Average pointers per metadata object in the relation table. */
    double pointersPerObject = 3.4;
    /** Image manifest parse + section header validation. */
    SimTime imageManifestParse = 120_us;
    /** CRC over one image page during integrity verification. */
    SimTime checksumPerPage = 120_ns;
    /** Remote func-image fetch over the datacenter network, per MiB. */
    SimTime networkFetchPerMiB = 850_us;

    //
    // Datacenter fabric (net/). The modeled fabric splits a transfer
    // into one round trip (handshake/ACK) plus a streaming part riding
    // the NIC's bandwidth; the flat-compat mode keeps charging
    // networkFetchPerMiB so existing remote-fetch paths stay
    // bit-identical. netStreamPerMiB matches networkFetchPerMiB on
    // purpose: the calibrated per-MiB cost *is* the streaming rate, the
    // modeled mode merely adds latency structure around it.
    //
    /** Round trip between two machines in the same rack (ToR switch). */
    SimTime netRttIntraRack = 20_us;
    /** Round trip across racks (spine hop). */
    SimTime netRttCrossRack = 90_us;
    /** Peer-to-peer streaming of one MiB at NIC line rate. */
    SimTime netStreamPerMiB = 850_us;
    /**
     * Streaming one MiB from the origin image repository: a shared blob
     * store serves many clients, so its per-client bandwidth is about
     * half a dedicated peer NIC.
     */
    SimTime netOriginStreamPerMiB = 1700_us;
    /** Issue one batched remote page-pull request (remote sfork). */
    SimTime netPagePullBatchSetup = 15_us;

    //
    // Content-addressed image store (snapshot/chunk_store.h). Images are
    // cut into content-defined chunks by a rolling hash over per-page
    // fingerprints; a chunk missing from every local tier is fetched
    // from a peer (netStreamPerMiB) or origin (netOriginStreamPerMiB).
    // The local tiers below RAM model a dedicated NVMe cache partition:
    // faster than the per-fault cold path (demandFaultFileCold) because
    // chunk reads are large and sequential, slower than memory.
    //
    /** Smallest allowed chunk, pages (cut points below this are ignored). */
    std::size_t chunkMinPages = 8;
    /** Target average chunk length, pages (power of two: the rolling
     *  hash cuts when its low log2(avg) bits match). */
    std::size_t chunkAvgPages = 32;
    /** Forced cut at this length, pages (bounds worst-case transfer). */
    std::size_t chunkMaxPages = 128;
    /** Fingerprint + rolling-hash work per image page when chunking. */
    SimTime chunkHashPerPage = 150_ns;
    /** One cluster chunk-directory consultation (batched per fetch). */
    SimTime chunkDirectoryLookup = 8_us;
    /** Copy one MiB of RAM-tier cached chunks into an image mapping. */
    SimTime ramCacheStreamPerMiB = 110_us;
    /** Per-read setup of the local NVMe chunk-cache partition. */
    SimTime ssdCacheReadSetup = 25_us;
    /** Sequential NVMe streaming of one MiB from the chunk cache. */
    SimTime ssdCacheStreamPerMiB = 400_us;

    //
    // Working-set prefetch (prefetch/), REAP-style batched restore
    // reads. A batch is one readahead submission covering up to 64
    // image pages (the runtime's batch size), so the SSD serves a large
    // sequential read instead of per-fault 4 KiB random reads
    // (demandFaultFileCold): setup is paid once per batch and the
    // per-page transfer rides the device's sequential bandwidth.
    //
    /** Submit one batched readahead (request setup + queueing). */
    SimTime prefetchBatchSetup = 40_us;
    /** Sequential SSD transfer of one 4 KiB page within a batch. */
    SimTime prefetchSsdPerPage = 9_us;
    /** Serialize or parse one working-set manifest. */
    SimTime workingSetManifestIo = 35_us;

    //
    // Guest kernel / Go runtime (guest/).
    //
    /** Sentry internal data-structure init beyond KVM resources. */
    SimTime sentryInitFixed = 1.5_ms;
    /** Guest mounts performed while setting up the root namespace. */
    int guestMounts = 9;
    /** Sentry's own anonymous working memory, pages. */
    int sentrySelfPages = 1536;
    /**
     * The rest of the runsc machinery on a stock cold boot (OCI hooks,
     * gofer attach, console and signal plumbing). Stock gVisor and
     * gVisor-restore pay it; Catalyzer's Zygote pre-creates all of it.
     */
    SimTime gvisorRuncMisc = 95_ms;
    /** Start the Go runtime inside the sandbox process. */
    SimTime goRuntimeStart = 2.6_ms;
    /** Create one OS-backed thread. */
    SimTime threadCreate = 80_us;
    /** Park/merge one thread entering the transient single-thread state. */
    SimTime threadMerge = 110_us;
    /** Re-expand one thread after sfork. */
    SimTime threadExpand = 58_us;
    /** Blocking-thread timeout poll granularity (template generation). */
    SimTime blockingThreadTimeout = 2_ms;

    //
    // I/O reconnection (catalyzer/ and snapshot/).
    //
    /** Fixed bookkeeping to re-establish one I/O connection record. */
    SimTime ioReconnectBase = 350_us;
    /** Extra cost when reconnection needs a Gofer round trip. */
    SimTime ioReconnectGofer = 190_us;
    /**
     * Critical-path cost of *deferring* one reconnection: tagging the fd
     * as not-reopened and queueing the async re-establishment.
     */
    SimTime ioLazyMarkPerConn = 25_us;

    //
    // sfork (hostos/).
    //
    SimTime sforkSyscallBase = 160_us;
    /** Copy one VMA descriptor and mark COW. */
    SimTime sforkPerVma = 1.6_us;
    /** Copy page-table pages, charged per 512 PTEs. */
    SimTime sforkPtePerBatch = 1.9_us;
    /** Set up PID/USER namespaces for the child. */
    SimTime namespaceSetup = 140_us;
    /** Clone the in-memory overlay rootFS (COW, constant time). */
    SimTime overlayFsClone = 22_us;

    //
    // Sandbox lifecycle (sandbox/).
    //
    /** Gateway -> runtime "invoke" RPC delivery. */
    SimTime rpcDelivery = 1.369_ms;
    /** OCI configuration parse. */
    SimTime parseConfig = 319_us;
    /** Spawn the sandbox process (fork+exec of the runtime binary). */
    SimTime bootSandboxProcess = 757_us;
    /** Spawn the I/O (Gofer) process. */
    SimTime bootIoProcess = 680_us;
    /** Zygote specialization: append function-specific config. */
    SimTime zygoteAppendConfig = 150_us;
    /** Zygote specialization: import function binaries, per MiB. */
    SimTime zygoteImportPerMiB = 260_us;

    //
    // Competing sandbox systems (sandbox/), end-to-end fixed parts.
    //
    SimTime dockerSetupFixed = 96_ms;
    SimTime hyperSetupFixed = 510_ms;
    SimTime firecrackerVmmInit = 21_ms;
    SimTime firecrackerKernelBoot = 97_ms;

    //
    // Application-initialization slowdown inside each sandbox relative
    // to a native process. Interpreter/JVM startup is syscall-heavy, so
    // interception-based sandboxes pay a large factor (this is why
    // native Java boots in 89 ms where gVisor needs 659 ms, Table 2).
    //
    double gvisorAppInitFactor = 4.4;
    /** gVisor on the ptrace platform (no KVM): heavier interception. */
    double gvisorPtraceAppInitFactor = 6.5;
    double dockerAppInitFactor = 1.05;
    double firecrackerAppInitFactor = 1.15;
    double hyperAppInitFactor = 1.6;

    //
    // Shared COW state regions and workflow chaining (state/,
    // workflow/). A same-machine chain hop is a warm in-memory queue
    // hand-off; a cross-machine hop pays a marshal/dispatch on top of
    // the fabric RTT, plus whatever region transfers the consumer's
    // attaches trigger. Publish folds the writer's private COW pages
    // into a fresh arena generation.
    //
    /** Create a named region (directory entry + arena reservation). */
    SimTime stateCreateFixed = 9_us;
    /** Map a sealed region replica into a consumer (share-map op). */
    SimTime stateAttachFixed = 6_us;
    /** Version bump + directory update on publish. */
    SimTime statePublishFixed = 20_us;
    /** Fold one dirty page into the new version's arena. */
    SimTime statePublishPerPage = 500_ns;
    /** Hand a chain hop to a co-resident stage (in-memory queue). */
    SimTime chainLocalHop = 3_us;
    /** Marshal + dispatch a stage invoke to another machine (plus the
     *  fabric round trip, charged separately). */
    SimTime chainRemoteDispatch = 12_us;

    /** CPUs available for parallel restore work. */
    int restoreWorkers = 8;

    /** The 96-core server profile used for the industrial runs (Sec. 6.1). */
    static CostModel serverProfile();
};

} // namespace catalyzer::sim

#endif // CATALYZER_SIM_COST_MODEL_H
