/**
 * @file
 * The Catalyzer runtime: init-less booting for one machine.
 *
 * Implements the paper's three boot paths (Fig. 7):
 *  - cold boot: on-demand restore from a well-formed func-image
 *    (overlay memory + separated state recovery + on-demand I/O
 *    reconnection), constructing the sandbox with the tuned host;
 *  - warm boot: the same restore sharing a Zygote from the pool and the
 *    live Base-EPT of earlier instances;
 *  - fork boot: sfork from a per-function template sandbox.
 * Plus language runtime templates (Sec. 4.3) for fast cold boots of
 * lightweight functions.
 */

#ifndef CATALYZER_CATALYZER_RUNTIME_H
#define CATALYZER_CATALYZER_RUNTIME_H

#include <memory>

#include "apps/app_profile.h"
#include "catalyzer/zygote.h"
#include "faults/fault_injector.h"
#include "net/fabric.h"
#include "sandbox/function_artifacts.h"
#include "sandbox/pipelines.h"
#include "snapshot/image_store.h"

namespace catalyzer::core {

/**
 * What a remote-sfork boot borrows from a peer machine (resolved by the
 * cluster's control plane): the lender's live template, the func-image
 * it was restored from (metadata only — page *data* crosses the fabric,
 * never the lender's frame store), its working-set manifest for batched
 * pulls, and the fabric endpoints.
 */
struct RemoteForkSource
{
    sandbox::SandboxInstance *templateInstance = nullptr;
    std::shared_ptr<snapshot::FuncImage> image;
    std::shared_ptr<prefetch::WorkingSetManifest> manifest;
    net::Fabric *fabric = nullptr;
    net::NodeId self = 0;
    net::NodeId peer = 0;
    /**
     * Lender-side observability endpoints (optional): with both set, a
     * traced remote-sfork emits "lend-template" / "serve-pull-batch"
     * spans into the *lender's* tracer carrying the borrower's
     * distributed trace id, which is what lets the fleet exporter
     * stitch both machines' halves of the boot into one timeline.
     */
    trace::Tracer *peerTracer = nullptr;
    const sim::VirtualClock *peerClock = nullptr;
};

/** Feature switches; the defaults are full Catalyzer. Turning individual
 *  techniques off reproduces the ablation rows of Fig. 12. */
struct CatalyzerOptions
{
    bool overlayMemory = true;      ///< direct-map + COW vs eager load
    bool separatedState = true;     ///< relation table vs per-object decode
    bool lazyIoReconnection = true; ///< on-demand vs eager reconnect
    /**
     * Images live in remote storage: the first cold boot of a function
     * on this machine pays the network fetch (Sec. 2.2, init-less
     * booting: "a serverless platform needs to fetch a func-image
     * first").
     */
    bool remoteImages = false;
    /** Verify image checksums before restoring; corrupted images are
     *  rebuilt from a fresh checkpoint. */
    bool verifyImages = false;
    /**
     * Content-addressed image store (snapshot/chunk_store.h): cut
     * published images into content-defined chunks and fetch through
     * the RAM -> SSD -> peer -> origin tier ladder. Disabled by
     * default, which keeps remote fetches bit-identical to the flat
     * whole-image model.
     */
    snapshot::ChunkStoreConfig chunkedImages;
    /**
     * Working-set prefetch (REAP-style extension, src/prefetch/).
     * recordWorkingSet captures the page-fault trace of each restore's
     * restore-to-first-response window into a per-function manifest
     * (observation only: no boot-path latency). prefetchWorkingSet
     * eagerly populates the manifest's stable set into the Base-EPT in
     * batched reads of 64 pages before the first request, falling back
     * to demand paging when the manifest is missing or stale. The
     * stable set keeps the pages present in at least half of the first
     * three traces.
     */
    bool recordWorkingSet = true;
    bool prefetchWorkingSet = false;
    std::size_t zygotePrewarm = 4;
    /**
     * Fault injection (src/faults/): per-site failure probabilities;
     * the boot paths survive injections with the fixed retry policy of
     * fault_injector.h. All-zero by default, and strictly
     * pay-for-use: with no faults configured the injector never draws
     * randomness, charges latency, or creates counters.
     */
    faults::FaultConfig faults;
};

/** One Catalyzer deployment on a machine. */
class CatalyzerRuntime
{
  public:
    explicit CatalyzerRuntime(sandbox::Machine &machine,
                              CatalyzerOptions options = {});

    /**
     * Cold boot: full on-demand restore, sandbox built on the path.
     *
     * All boot paths accept a TraceContext; when enabled, the boot
     * emits a "boot/Catalyzer-*" span tree whose phase-tagged children
     * are the report's stages down to function entry (map-image,
     * recover-kernel, reconnect-io, ...), and the boot latency is
     * observed into the machine's "boot.latency.Catalyzer-*" histogram
     * either way.
     */
    sandbox::BootResult bootCold(sandbox::FunctionArtifacts &fn,
                                 trace::TraceContext trace = {});

    /** Warm boot: Zygote + shared Base-EPT + I/O cache. */
    sandbox::BootResult bootWarm(sandbox::FunctionArtifacts &fn,
                                 trace::TraceContext trace = {});

    /** Fork boot: sfork from the function's template sandbox. */
    sandbox::BootResult bootFork(sandbox::FunctionArtifacts &fn,
                                 trace::TraceContext trace = {});

    /**
     * Remote-sfork (MITOSIS-style): fork from a *peer machine's*
     * template over the fabric. One round trip fetches the fork
     * descriptor, the image's metadata section and the working-set
     * stable set stream into a local mirror in batched pulls, and the
     * remaining pages arrive on demand through a network-backed fault
     * observer for the instance's lifetime. Throws faults::FaultError
     * when the peer is (injected) dead at handshake time, so the
     * platform degrades to the local tiers.
     */
    sandbox::BootResult bootRemoteFork(sandbox::FunctionArtifacts &fn,
                                       const RemoteForkSource &src,
                                       trace::TraceContext trace = {});

    /**
     * Cold boot via the per-language runtime template (Table 2): sfork
     * the language template, then load the function's own modules.
     */
    sandbox::BootResult
    bootFromLanguageTemplate(sandbox::FunctionArtifacts &fn,
                             trace::TraceContext trace = {});

    /** Build the function's template sandbox now (offline). */
    void prepareTemplate(sandbox::FunctionArtifacts &fn);

    /** Build the language template for @p lang now (offline). */
    void prepareLanguageTemplate(apps::Language lang);

    ZygotePool &zygotes() { return zygotes_; }
    snapshot::ImageStore &images() { return images_; }
    const snapshot::ImageStore &images() const { return images_; }
    const CatalyzerOptions &options() const { return options_; }
    sandbox::Machine &machine() { return machine_; }

    /** The machine's fault source (script failures via failNext()). */
    faults::FaultInjector &faults() { return injector_; }

    /** Resident memory of the language templates. */
    std::size_t languageTemplateBytes() const
    {
        return lang_registry_.templateBytes();
    }

  private:
    /** One boot in flight, threaded through the stages below. */
    struct Boot;
    /** What a restore does with the function's I/O cache: use it (warm
     *  local), record it (cold local), or leave it to the lender. */
    enum class IoCache { Use, Record, None };

    sandbox::BootResult bootRestore(sandbox::FunctionArtifacts &fn,
                                    bool warm,
                                    trace::TraceContext trace = {});

    /**
     * Boot stages (DESIGN.md §7). Each opens its BootReport stage (one
     * span, one booked duration), does its work and closes it; a boot
     * tier is a list of them.
     */
    void acquireSandbox(Boot &b, bool zygote);
    void specialize(Boot &b);
    void mapImage(Boot &b, bool warm, bool cold_cache);
    void prefetchWorkingSet(Boot &b);
    void mapRemoteOverlay(Boot &b, const RemoteForkSource &src);
    void prefetchRemote(Boot &b, const RemoteForkSource &src);
    void recoverKernel(Boot &b, bool cold_cache);
    void reconnectIo(Boot &b, IoCache cache);
    void finishRestore(Boot &b);
    void sfork(Boot &b, sandbox::SandboxInstance &tmpl);

    /**
     * Resolve the function's working-set manifest (fn.workingSet) for
     * this boot: drop it if it is stale for @p image, create a fresh one
     * when recording, and publish it when a new trace was merged since
     * the last boot.
     */
    std::shared_ptr<prefetch::WorkingSetManifest>
    ensureWorkingSet(sandbox::FunctionArtifacts &fn,
                     const snapshot::FuncImage &image);
    std::shared_ptr<snapshot::FuncImage>
    acquireImage(sandbox::FunctionArtifacts &fn,
                 trace::TraceContext trace = {});
    /**
     * Fetch the function's published image from remote storage,
     * retrying injected transfer failures with backoff; throws
     * faults::FaultError once the retry budget is exhausted (the
     * restore tier then degrades to a fresh boot).
     */
    std::shared_ptr<snapshot::FuncImage>
    fetchRemoteImage(sandbox::FunctionArtifacts &fn,
                     trace::TraceContext trace = {});
    /**
     * Offline template bring-up: restore @p fn, reconnect its I/O and
     * collapse it into the transient single-thread state for sforking;
     * bumps @p counter.
     */
    std::unique_ptr<sandbox::SandboxInstance>
    buildTemplate(sandbox::FunctionArtifacts &fn, sim::CounterHandle counter);
    sandbox::SandboxInstance &ensureTemplate(sandbox::FunctionArtifacts &fn);
    sandbox::SandboxInstance &
    ensureLanguageTemplate(apps::Language lang);

    sandbox::Machine &machine_;
    CatalyzerOptions options_;
    faults::FaultInjector injector_;
    ZygotePool zygotes_;
    snapshot::ImageStore images_;
    /** Artifacts of the language-base (hello) apps: each language
     *  template lives on its hello app's artifacts. */
    sandbox::FunctionRegistry lang_registry_;
    std::uint64_t boot_seq_ = 0;
};

} // namespace catalyzer::core

#endif // CATALYZER_CATALYZER_RUNTIME_H
