#include "catalyzer/runtime.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "guest/syscall_policy.h"
#include "net/remote_pager.h"
#include "prefetch/fault_recorder.h"
#include "prefetch/prefetcher.h"
#include "sim/logging.h"
#include "sim/metric_catalog.h"
#include "snapshot/io_reconnect.h"

namespace catalyzer::core {

using sandbox::BootResult;
using sandbox::FunctionArtifacts;
using sandbox::SandboxInstance;

namespace {

/** Pages per readahead batch when prefetching a working set. */
constexpr std::size_t kPrefetchBatchPages = 64;

/** A page joins a manifest's stable set when it appears in at least
 *  this fraction of the merged traces. */
constexpr double kWorkingSetMinFraction = 0.5;

/** Restore traces merged into a working-set manifest before it stops
 *  recording. */
constexpr std::size_t kWorkingSetTraces = 3;

/** Pages per remote pull request on the remote-sfork demand path. */
constexpr std::size_t kRemotePullBatchPages = 32;

/** Fraction of each hello-app's modules the language runtime template
 *  preloads. */
constexpr double kLanguageTemplateCoreFraction = 0.8;

} // namespace

CatalyzerRuntime::CatalyzerRuntime(sandbox::Machine &machine,
                                   CatalyzerOptions options)
    : machine_(machine), options_(options),
      injector_(options.faults),
      zygotes_(machine), images_(machine.ctx()),
      lang_registry_(machine)
{
    zygotes_.setFaultInjector(&injector_);
    images_.setFaultInjector(&injector_);
    images_.configureChunks(options_.chunkedImages);
    if (options_.zygotePrewarm > 0)
        zygotes_.prewarm(options_.zygotePrewarm);
}

BootResult
CatalyzerRuntime::bootCold(FunctionArtifacts &fn,
                           trace::TraceContext trace)
{
    BootResult result = bootRestore(fn, /*warm=*/false, trace);
    machine_.ctx().stats().observe(metrics::kBootLatencyCatalyzerCold,
                                   result.report.total());
    return result;
}

BootResult
CatalyzerRuntime::bootWarm(FunctionArtifacts &fn,
                           trace::TraceContext trace)
{
    // Warm boot presumes earlier instances: establish the shared base
    // (and the I/O cache) with one offline cold boot if missing.
    if (!fn.sharedBase) {
        // The primer instance is dropped immediately; the Base-EPT and
        // the I/O cache survive in the artifacts. It is offline work,
        // so it stays out of the trace and the latency histograms.
        bootRestore(fn, /*warm=*/false);
    }
    BootResult result = bootRestore(fn, /*warm=*/true, trace);
    machine_.ctx().stats().observe(metrics::kBootLatencyCatalyzerWarm,
                                   result.report.total());
    return result;
}

std::shared_ptr<snapshot::FuncImage>
CatalyzerRuntime::fetchRemoteImage(FunctionArtifacts &fn,
                                   trace::TraceContext trace)
{
    auto &ctx = machine_.ctx();
    const auto format = snapshot::ImageFormat::SeparatedWellFormed;
    for (int attempt = 1;; ++attempt) {
        auto image = images_.fetch(fn.app().name, format, trace);
        if (image)
            return image;
        if (!images_.publishedRemotely(fn.app().name, format))
            sim::panic("fetchRemoteImage: %s was never published",
                       fn.app().name.c_str());
        // Injected transfer failure (the store already charged the
        // attempt timeout); back off and retry until the budget runs
        // out, then fail the restore tier.
        if (attempt >= faults::kMaxAttempts)
            throw faults::FaultError(
                faults::FaultSite::ImageFetch,
                "remote fetch of " + fn.app().name + " failed after " +
                    std::to_string(faults::kMaxAttempts) + " attempts");
        ctx.stats().incr(metrics::kCatalyzerImageFetchRetries);
        ctx.charge(faults::retryBackoff(attempt, injector_.rng()));
    }
}

std::shared_ptr<snapshot::FuncImage>
CatalyzerRuntime::acquireImage(FunctionArtifacts &fn,
                               trace::TraceContext trace)
{
    auto &ctx = machine_.ctx();
    trace::ScopedSpan span(trace, "image-acquire");
    span.attr("remote", trace::boolName(options_.remoteImages));
    const bool was_built = static_cast<bool>(fn.separatedImage);
    auto image = sandbox::ensureSeparatedImage(fn);

    if (options_.remoteImages) {
        // A freshly built image stands for one produced elsewhere: it
        // goes to remote storage and this machine must fetch it.
        if (!was_built) {
            images_.publish(image);
            images_.evictLocal(fn.app().name,
                               snapshot::ImageFormat::SeparatedWellFormed);
        }
        image = fetchRemoteImage(fn, span.context());
    }

    if (options_.verifyImages) {
        for (int rebuild = 0;; ++rebuild) {
            // Injected storage rot hits the image just before the
            // integrity check would catch it.
            if (injector_.shouldFail(faults::FaultSite::ImageCorruption,
                                     ctx.stats()))
                image->markCorrupted();
            if (snapshot::verifyImage(ctx, *image))
                break;
            if (rebuild >= faults::kMaxAttempts)
                throw faults::FaultError(
                    faults::FaultSite::ImageCorruption,
                    fn.app().name + " image still corrupted after " +
                        std::to_string(faults::kMaxAttempts) + " rebuilds");
            // Corrupted image: rebuild from a fresh checkpoint
            // (offline) and republish, then continue with the clean
            // copy.
            ctx.stats().incr(metrics::kCatalyzerImageRebuilds);
            fn.separatedImage.reset();
            // Any Base-EPT over the bad image must not serve new boots;
            // live instances keep their shared_ptr until they exit.
            fn.sharedBase.reset();
            fn.firstRestoreDone = false;
            image = sandbox::ensureSeparatedImage(fn);
            if (options_.remoteImages) {
                // Symmetric with the initial-publish path: the rebuilt
                // image goes to remote storage and this machine pays
                // the re-fetch, it does not keep the locally built
                // copy for free.
                images_.publish(image);
                images_.evictLocal(
                    fn.app().name,
                    snapshot::ImageFormat::SeparatedWellFormed);
                image = fetchRemoteImage(fn, span.context());
                ctx.stats().incr(
                    metrics::kCatalyzerImageRefetchAfterRebuild);
            }
        }
    }
    return image;
}

std::shared_ptr<prefetch::WorkingSetManifest>
CatalyzerRuntime::ensureWorkingSet(FunctionArtifacts &fn,
                                   const snapshot::FuncImage &image)
{
    if (!options_.recordWorkingSet && !options_.prefetchWorkingSet)
        return nullptr;
    auto &ctx = machine_.ctx();

    if (fn.workingSet && !fn.workingSet->matches(image.generation())) {
        // The image was rebuilt (recompiled, or repaired after
        // corruption): the recorded pages describe the old layout. Drop
        // the manifest and fall back to demand paging while a fresh one
        // is recorded.
        ctx.stats().incr(metrics::kPrefetchManifestStale);
        fn.workingSet.reset();
    }

    if (!fn.workingSet && options_.recordWorkingSet) {
        fn.workingSet = std::make_shared<prefetch::WorkingSetManifest>(
            fn.app().name, image.generation(), kWorkingSetTraces,
            kWorkingSetMinFraction);
    }

    if (fn.workingSet && fn.workingSet->dirty()) {
        // A trace was merged since the last boot: the new stable set
        // is published (to this machine's next boots, and to remote-fork
        // borrowers through RemoteForkSource::manifest).
        ctx.stats().incr(metrics::kSnapshotManifestsPublished);
        fn.workingSet->markPublished();
    }
    return fn.workingSet;
}

/**
 * One Catalyzer boot in flight: its span and report (whose stage mark
 * starts at construction), and what earlier stages hand to later ones.
 */
struct CatalyzerRuntime::Boot
{
    Boot(sim::SimContext &ctx, FunctionArtifacts &fn,
         trace::TraceContext trace, trace::Name span_name)
        : fn(fn), app(fn.app()), span(trace, span_name),
          tctx(span.context())
    {
        span.attr("function", app.name);
        report().start(ctx.clock());
    }

    /** Name the boot's sandbox <prefix><next boot number>. */
    void
    number(std::uint64_t &seq, const char *prefix)
    {
        tag = prefix;
        tag += std::to_string(seq++);
    }

    SandboxInstance &inst() { return *result.instance; }
    trace::BootReport &report() { return result.report; }
    mem::PageIndex heapVa() const
    {
        return baseVa + image->memorySectionStart();
    }

    FunctionArtifacts &fn;
    const apps::AppProfile &app;
    trace::ScopedSpan span;
    const trace::TraceContext tctx;
    std::string tag;
    BootResult result;
    std::shared_ptr<snapshot::FuncImage> image;
    mem::PageIndex binaryVa = 0;
    mem::PageIndex baseVa = 0;
};

BootResult
CatalyzerRuntime::bootRestore(FunctionArtifacts &fn, bool warm,
                              trace::TraceContext trace)
{
    const char *tier = warm ? "warm" : "cold";
    Boot b(machine_.ctx(), fn, trace,
           warm ? trace::Name("boot/Catalyzer-warm")
                : trace::Name("boot/Catalyzer-cold"));

    // Offline build / remote fetch / integrity check as configured. A
    // failed fetch throws before the boot takes a number.
    b.image = acquireImage(fn, b.tctx);
    b.report().start(machine_.ctx().clock());
    b.number(boot_seq_, tier);

    // Warm boots specialize a Zygote; cold boots construct the sandbox
    // on the path (with the tuned host: PML off, kvcalloc cache on),
    // matching the paper's Catalyzer-restore.
    const bool cold_cache = !warm && !fn.firstRestoreDone;
    acquireSandbox(b, /*zygote=*/warm);
    specialize(b);
    mapImage(b, warm, cold_cache);
    prefetchWorkingSet(b);
    recoverKernel(b, cold_cache);
    reconnectIo(b, warm ? IoCache::Use : IoCache::Record);
    finishRestore(b);

    fn.firstRestoreDone = true;
    machine_.ctx().stats().incr(warm ? metrics::kCatalyzerWarmBoots
                                     : metrics::kCatalyzerColdBoots);
    sim::debugLog("boot Catalyzer-%s/%s: %.3f ms", tier,
                  fn.app().name.c_str(), b.result.report.total().toMs());
    return std::move(b.result);
}

void
CatalyzerRuntime::acquireSandbox(Boot &b, bool zygote)
{
    auto stage = b.report().sandboxStage(
        b.tctx, zygote ? trace::Name("zygote-acquire")
                       : trace::Name("construct-sandbox"));
    if (zygote) {
        Zygote z = zygotes_.acquire(stage.context());
        b.result.instance = std::make_unique<SandboxInstance>(
            machine_, b.fn, b.app.name + "-" + b.tag, *z.proc);
        b.inst().setGuest(std::move(z.guest));
    } else {
        machine_.ctx().charge(machine_.ctx().costs().parseConfig);
        b.result.instance =
            sandbox::makeBareInstance(b.fn, b.tag.c_str());
        sandbox::constructGVisorSandbox(b.inst(), ZygotePool::kvmConfig(),
                                        stage.context());
    }
}

void
CatalyzerRuntime::specialize(Boot &b)
{
    // Append the function config, import its binaries and mount the
    // function rootfs over the base.
    auto stage = b.report().sandboxStage(b.tctx, "specialize");
    auto &ctx = machine_.ctx();
    const auto &costs = ctx.costs();
    ctx.charge(costs.zygoteAppendConfig);
    const std::size_t binary_mib =
        mem::bytesForPages(b.app.binaryPages) >> 20;
    ctx.charge(costs.zygoteImportPerMiB *
               static_cast<std::int64_t>(std::max<std::size_t>(
                   binary_mib, 1)));
    b.binaryVa = b.inst().space().mapFile(
        b.fn.binary(), 0, b.app.binaryPages, mem::MapKind::FilePrivate,
        false, "binary");
    b.inst().guest().mountRootfs(1);
    b.inst().setRootfs(std::make_unique<vfs::OverlayRootfs>(
        ctx, b.fn.fsServer()));
}

void
CatalyzerRuntime::mapImage(Boot &b, bool warm, bool cold_cache)
{
    // Overlay memory: map the func-image (cold) or share the live
    // Base-EPT (warm).
    auto &ctx = machine_.ctx();
    snapshot::FuncImage &image = *b.image;
    auto stage =
        b.report().appStage(b.tctx, warm ? trace::Name("share-mapping")
                                         : trace::Name("map-image"));
    stage.attr("image_pages", static_cast<std::int64_t>(image.totalPages()));
    if (!b.fn.sharedBase) {
        ctx.charge(ctx.costs().imageManifestParse);
        b.fn.sharedBase = std::make_shared<mem::BaseMapping>(
            machine_.frames(), image.file(), 0, image.totalPages(),
            b.app.name + "-base");
    } else if (!warm) {
        ctx.charge(ctx.costs().imageManifestParse);
    }
    b.baseVa = b.inst().space().attachBase(b.fn.sharedBase);
    if (!options_.overlayMemory) {
        // Ablation: eagerly fault and copy the whole memory section.
        b.inst().space().touchRange(b.heapVa(), image.state().memoryPages,
                                    /*write=*/true, cold_cache);
    }
}

void
CatalyzerRuntime::prefetchWorkingSet(Boot &b)
{
    //
    // Working-set prefetch (REAP-style): load the recorded stable set
    // into the just-established Base-EPT in large batched reads, so the
    // first request demand-pages only what the manifest missed.
    //
    auto &ctx = machine_.ctx();
    std::shared_ptr<prefetch::WorkingSetManifest> manifest =
        ensureWorkingSet(b.fn, *b.image);
    std::vector<mem::PageIndex> prefetched_set;
    if (options_.prefetchWorkingSet) {
        auto stage = b.report().appStage(b.tctx, "prefetch");
        if (manifest && manifest->usable()) {
            ctx.stats().incr(metrics::kPrefetchManifestHits);
            std::vector<mem::PageIndex> stable = manifest->stableSet();
            stage.attr("stable_pages",
                       static_cast<std::int64_t>(stable.size()));
            stage.attr("traces",
                       static_cast<std::int64_t>(manifest->traceCount()));
            prefetch::prefetchIntoBase(ctx, *b.fn.sharedBase, stable,
                                       kPrefetchBatchPages,
                                       stage.context());
            prefetched_set = std::move(stable);
        } else {
            // Missing or still-empty manifest: plain demand paging.
            ctx.stats().incr(metrics::kPrefetchManifestMisses);
            stage.attr("skipped", manifest ? "manifest-empty"
                                           : "manifest-missing");
        }
    }

    //
    // Arm the restore-to-first-response recording window: refine the
    // manifest while it is not frozen, and audit a prefetched set
    // against the pages the window actually touches (hit rate, wasted
    // pages). The window closes at the end of the first invocation.
    //
    const bool record_trace =
        manifest && options_.recordWorkingSet && !manifest->frozen();
    if (record_trace || !prefetched_set.empty()) {
        auto recorder = std::make_unique<prefetch::FaultRecorder>(
            b.baseVa, b.image->totalPages());
        if (record_trace)
            recorder->enableRecording(manifest);
        if (!prefetched_set.empty())
            recorder->enableAudit(std::move(prefetched_set));
        b.inst().armWorkingSetRecorder(std::move(recorder));
    }
}

void
CatalyzerRuntime::mapRemoteOverlay(Boot &b, const RemoteForkSource &src)
{
    //
    // Remote overlay: a Base-EPT over a *local mirror* of the lender's
    // image, starting empty. Creating it (first borrow, or a lender
    // image rebuild) streams the metadata section — the arena and
    // relation table the fixup walks — in one batched transfer;
    // everything else arrives later, pulled on demand.
    //
    auto &ctx = machine_.ctx();
    FunctionArtifacts &fn = b.fn;
    const snapshot::FuncImage &image = *b.image;
    if (fn.remoteBase && fn.remoteGeneration != image.generation()) {
        fn.remoteBase.reset();
        fn.remoteMirror.reset();
        ctx.stats().incr(metrics::kRemoteMirrorInvalidated);
    }
    auto stage = b.report().appStage(b.tctx, "map-remote-image");
    stage.attr("image_pages", static_cast<std::int64_t>(image.totalPages()));
    if (!fn.remoteBase) {
        ctx.charge(ctx.costs().imageManifestParse);
        fn.remoteMirror = std::make_unique<mem::BackingFile>(
            machine_.frames(), b.app.name + "-remote-mirror",
            image.totalPages());
        fn.remoteBase = std::make_shared<mem::BaseMapping>(
            machine_.frames(), *fn.remoteMirror, 0, image.totalPages(),
            b.app.name + "-remote-base");
        fn.remoteGeneration = image.generation();
        const std::size_t meta_pages = image.metadataSectionPages();
        src.fabric->transfer(ctx, src.peer, src.self,
                             mem::bytesForPages(meta_pages),
                             "image-metadata", stage.context());
        for (std::size_t i = 0; i < meta_pages; ++i)
            fn.remoteBase->populatePrefetched(
                ctx, image.metadataSectionStart() + i);
        stage.attr("metadata_pages", static_cast<std::int64_t>(meta_pages));
    }
    b.baseVa = b.inst().space().attachBase(fn.remoteBase);
}

void
CatalyzerRuntime::prefetchRemote(Boot &b, const RemoteForkSource &src)
{
    //
    // Working-set pull: the lender's manifest tells us which pages the
    // first request will need; stream the stable set in one batched
    // transfer instead of faulting it page by page over the fabric.
    //
    const snapshot::FuncImage &image = *b.image;
    if (!src.manifest || !src.manifest->usable() ||
        !src.manifest->matches(image.generation()))
        return;
    auto &ctx = machine_.ctx();
    mem::BaseMapping &base = *b.fn.remoteBase;
    auto stage = b.report().appStage(b.tctx, "remote-prefetch");
    std::vector<mem::PageIndex> stable = src.manifest->stableSet();
    std::size_t pulled = 0;
    for (mem::PageIndex page : stable) {
        if (page >= image.totalPages() || base.lookup(page))
            continue;
        ++pulled;
    }
    stage.attr("stable_pages", static_cast<std::int64_t>(stable.size()));
    stage.attr("pulled_pages", static_cast<std::int64_t>(pulled));
    if (pulled > 0) {
        src.fabric->transfer(ctx, src.peer, src.self,
                             mem::bytesForPages(pulled), "working-set",
                             stage.context());
        for (mem::PageIndex page : stable) {
            if (page >= image.totalPages() || base.lookup(page))
                continue;
            base.populatePrefetched(ctx, page);
        }
        ctx.stats().incr(metrics::kRemotePrefetchPages,
                         static_cast<std::int64_t>(pulled));
    }
}

void
CatalyzerRuntime::recoverKernel(Boot &b, bool cold_cache)
{
    //
    // Separated state recovery: stage-1 map + stage-2 parallel fix-up,
    // then establish non-I/O kernel state.
    //
    auto &ctx = machine_.ctx();
    const auto &costs = ctx.costs();
    const objgraph::SeparatedImage &separated = b.image->separated();
    auto stage = b.report().appStage(b.tctx, "recover-kernel");
    stage.attr("separated", trace::boolName(options_.separatedState));
    stage.attr("objects", static_cast<std::int64_t>(separated.objectCount()));
    stage.attr("relocs", static_cast<std::int64_t>(separated.relocCount()));
    if (!options_.separatedState) {
        // Ablation: one-by-one deserialization on the path.
        const auto n = static_cast<std::int64_t>(separated.objectCount());
        ctx.chargeCounted(metrics::kRestoreDeserializedObjects,
                          costs.deserializeObject * n, n);
    }
    objgraph::ObjectGraph graph = separated.reconstruct(stage.context());
    const auto nobjects = static_cast<std::int64_t>(graph.objectCount());
    if (options_.separatedState) {
        const auto nrelocs =
            static_cast<std::int64_t>(separated.relocCount());
        ctx.chargeParallel(costs.relationFixupPerPointer, nrelocs);
        ctx.stats().incr(metrics::kCatalyzerPointerFixups, nrelocs);
        // Stage-2 dirties the pointer-bearing arena pages: real COW
        // faults against the shared image mapping (Table 3's cost).
        const mem::PageIndex arena_va =
            b.baseVa + b.image->metadataSectionStart();
        for (std::uint64_t rel : separated.pointerPageList())
            b.inst().space().touch(arena_va + rel, /*write=*/true,
                                   cold_cache);
        ctx.chargeParallel(costs.redoObject, nobjects);
        ctx.charge(costs.redoObjectSequentialPart * nobjects);
    } else {
        ctx.charge((costs.redoObject + costs.redoObjectSequentialPart) *
                   nobjects);
    }
    b.inst().guest().setState(std::move(graph));
    for (int i = 0; i < b.app.blockingThreads; ++i)
        b.inst().guest().threads().addBlockingThread();
}

void
CatalyzerRuntime::reconnectIo(Boot &b, IoCache cache)
{
    //
    // I/O: copy the checkpointed connection table; reconnect lazily
    // (guided by the I/O cache on warm boots) or eagerly (ablation).
    //
    auto &ctx = machine_.ctx();
    FunctionArtifacts &fn = b.fn;
    vfs::IoConnectionTable &io = b.inst().guest().io();
    auto stage = b.report().appStage(b.tctx, "reconnect-io");
    stage.attr("lazy", trace::boolName(options_.lazyIoReconnection));
    stage.attr("connections",
               static_cast<std::int64_t>(b.image->ioTable().size()));
    const trace::TraceContext ictx = stage.context();
    io.cloneFrom(b.image->ioTable());
    io.dropAll();
    if (!options_.lazyIoReconnection) {
        // Eager ablation: a connection whose retries all fail stays
        // down and re-establishes lazily at the first request.
        for (auto &conn : io.all())
            snapshot::reconnectWithRetry(ctx, conn, &fn.fsServer(),
                                         &injector_, ictx);
    } else {
        // Deferring is not free: each fd is tagged not-reopened and
        // the async re-establishment is queued.
        ctx.charge(ctx.costs().ioLazyMarkPerConn *
                   static_cast<std::int64_t>(io.count()));
        if (cache == IoCache::Use && !fn.ioCache.empty()) {
            // The cache tells us which connections the function
            // uses right after boot; re-establish exactly those on
            // the path.
            for (auto &conn : io.all()) {
                if (!conn.usedAtStartup)
                    continue;
                if (!snapshot::reconnectWithRetry(ctx, conn, &fn.fsServer(),
                                                  &injector_, ictx)) {
                    // Repeatedly failing entry: invalidate it so
                    // later boots stop reconnecting it eagerly;
                    // this boot degrades it to a lazy reconnect at
                    // the first request.
                    std::erase_if(fn.ioCache,
                                  [&](const vfs::IoConnection &cached) {
                                      return cached.path == conn.path;
                                  });
                    ctx.stats().incr(metrics::kCatalyzerIoCacheInvalidated);
                    ctx.stats().incr(metrics::kBootFallbackIoEagerLazy);
                }
            }
            stage.attr("cache_hit", "true");
            ctx.stats().incr(metrics::kCatalyzerIoCacheHits);
        }
    }
    if (cache == IoCache::Record && options_.lazyIoReconnection &&
        fn.ioCache.empty()) {
        // First cold boot records the deterministic startup set.
        for (const auto &conn : io.all()) {
            if (conn.usedAtStartup)
                fn.ioCache.push_back(conn);
        }
    }
}

void
CatalyzerRuntime::finishRestore(Boot &b)
{
    SandboxInstance &inst = b.inst();
    inst.setMemoryLayout(b.binaryVa, b.heapVa(),
                         b.image->state().memoryPages,
                         /*heap_on_base=*/true);
    // A warmed image (user-guided pre-initialization) carries the
    // handler's preparation work; restored instances skip it.
    inst.setPrepFraction(b.image->state().warmedPrepFraction);
    inst.proc().setThreadCount(inst.guest().threads().totalThreads());
    inst.setBootLatency(b.result.report.total());
}

void
CatalyzerRuntime::sfork(Boot &b, SandboxInstance &tmpl)
{
    auto &ctx = machine_.ctx();
    const auto &costs = ctx.costs();

    // Injected sfork failures fail before the child exists; retries are
    // cheap, and exhaustion fails the fork tier (degrades to warm). The
    // sfork stage opens at the stage mark, so it covers the retries.
    injector_.checkWithRetry(ctx, faults::FaultSite::Sfork);

    // The child's name is built once: its address space owns it, and
    // the host process reads it from there.
    std::string child_name;
    child_name.reserve(b.app.name.size() + 1 + b.tag.size());
    child_name.assign(b.app.name).append(1, '-').append(b.tag);
    {
        auto stage = b.report().sandboxStage(b.tctx, "sfork");
        stage.attr("template", tmpl.name());
        // Every child keeps the template's layout (no Sec. 6.8
        // re-randomization); the exported trace records that.
        stage.attr("rerandomize_aslr", trace::boolName(false));
        hostos::HostProcess &child =
            machine_.host().sfork(tmpl.proc(), std::move(child_name));
        b.result.instance = std::make_unique<SandboxInstance>(
            machine_, b.fn, child.name(), child);
    }

    auto stage = b.report().sandboxStage(b.tctx, "expand");

    // Guest state: the object graph and fd tables live in COWed memory;
    // the child re-expands its threads from the saved contexts and fixes
    // the handled-syscall state (Table 1).
    auto guest = std::make_unique<guest::GuestKernel>(
        ctx, b.inst().name() + "-kernel");
    guest->setState(tmpl.guest().state());
    guest->threads().adoptTransientState(tmpl.guest().threads());
    guest->threads().expandFromTransient();
    guest->io().cloneFrom(tmpl.guest().io().all());
    // Read-only file descriptors stay valid across sfork; sockets
    // must reconnect (lazily, via the Reconnect handler).
    for (auto &conn : guest->io().all()) {
        conn.established =
            conn.established && conn.kind != vfs::ConnKind::Socket;
    }
    const auto handled = static_cast<std::int64_t>(
        guest::countSyscallsWithClass(guest::SyscallClass::Handled));
    ctx.charge(costs.syscallBase * handled);

    SandboxInstance &inst = b.inst();
    inst.setGuest(std::move(guest));
    if (tmpl.rootfs())
        inst.setRootfs(tmpl.rootfs()->clone());
    inst.setMemoryLayout(0, tmpl.heapVa(), tmpl.heapPages(),
                         tmpl.heapOnBase());
    inst.setPrepFraction(tmpl.prepFraction());
    inst.proc().setThreadCount(inst.guest().threads().totalThreads());
    ctx.stats().incr(metrics::kCatalyzerForkBoots);
}

BootResult
CatalyzerRuntime::bootFork(FunctionArtifacts &fn,
                           trace::TraceContext trace)
{
    SandboxInstance &tmpl = ensureTemplate(fn); // offline
    if (injector_.shouldFail(faults::FaultSite::TemplateDeath,
                             machine_.ctx().stats())) {
        // The template sandbox died (crash, OOM-kill). No retry makes
        // sense — drop it so a later fork boot rebuilds it offline, and
        // fail the fork tier now (degrades to warm).
        fn.templateSandbox.reset();
        machine_.ctx().stats().incr(metrics::kCatalyzerTemplateDeaths);
        throw faults::FaultError(faults::FaultSite::TemplateDeath,
                                 fn.app().name + " template died");
    }
    Boot b(machine_.ctx(), fn, trace, "boot/Catalyzer-sfork");
    b.number(boot_seq_, "fork");
    sfork(b, tmpl);
    b.inst().setBootLatency(b.result.report.total());
    machine_.ctx().stats().observe(metrics::kBootLatencyCatalyzerSfork,
                                   b.result.report.total());
    return std::move(b.result);
}

BootResult
CatalyzerRuntime::bootRemoteFork(FunctionArtifacts &fn,
                                 const RemoteForkSource &src,
                                 trace::TraceContext trace)
{
    auto &ctx = machine_.ctx();

    // The lender may be gone by the time the fork request arrives; like
    // template death, no retry makes sense — fail the tier now so the
    // platform degrades to the local chain.
    if (injector_.shouldFail(faults::FaultSite::RemotePeerDeath,
                             ctx.stats())) {
        ctx.stats().incr(metrics::kRemotePeerLost);
        throw faults::FaultError(faults::FaultSite::RemotePeerDeath,
                                 fn.app().name + " fork peer " +
                                     std::to_string(src.peer) +
                                     " unreachable");
    }

    Boot b(ctx, fn, trace, "boot/Catalyzer-remote-sfork");
    b.span.attr("peer", static_cast<std::int64_t>(src.peer));
    b.number(boot_seq_, "rfork");
    b.image = src.image;

    //
    // Lender-side half of the stitched trace: a "lend-template" span in
    // the *lender's* tracer carrying the borrower's distributed trace
    // id, open from the handshake through the working-set pull. The
    // fleet exporter lines both halves up by that shared id.
    //
    trace::TraceContext peer_ctx;
    if (src.peerTracer != nullptr && src.peerClock != nullptr &&
        b.tctx.enabled())
        peer_ctx = b.tctx.withTracer(*src.peerTracer, *src.peerClock);
    trace::ScopedSpan lend_span(peer_ctx, "lend-template");
    if (lend_span.id() != 0) {
        lend_span.attr("function", fn.app().name);
        lend_span.attr("borrower", static_cast<std::int64_t>(src.self));
    }

    //
    // Handshake: one round trip fetches the fork descriptor (the
    // template's layout, thread contexts and relation-table index) from
    // the lender. The memory itself stays remote.
    //
    {
        auto stage = b.report().sandboxStage(b.tctx, "remote-handshake");
        stage.attr("peer", static_cast<std::int64_t>(src.peer));
        src.fabric->transfer(ctx, src.peer, src.self, 4096,
                             "fork-descriptor", stage.context());
    }

    // The borrowed state lands in a local sandbox, specialized exactly as
    // a local restore would. The mirrored metadata is already local, so
    // the fix-up runs at memory speed. Connections never survive a
    // machine boundary, and the lender owns the I/O cache.
    acquireSandbox(b, /*zygote=*/true);
    specialize(b);
    mapRemoteOverlay(b, src);
    prefetchRemote(b, src);
    recoverKernel(b, /*cold_cache=*/false);
    reconnectIo(b, IoCache::None);

    //
    // Everything the boot did not pull stays remote: install the pager
    // as the instance's lifetime fault observer, so later Base-EPT
    // fills inside the mirrored window also cross the fabric (batched,
    // MITOSIS-style). Working-set recording is skipped for borrowed
    // instances — the lender owns the manifest.
    //
    lend_span.finish();
    b.inst().setLifetimePager(std::make_unique<net::RemotePager>(
        ctx, *src.fabric, src.self, src.peer, b.baseVa,
        b.image->totalPages(), &injector_, kRemotePullBatchPages,
        b.tctx, peer_ctx));
    finishRestore(b);

    ctx.stats().incr(metrics::kCatalyzerRemoteForkBoots);
    ctx.stats().incr(metrics::kRemoteForkHits);
    ctx.stats().observe(metrics::kBootLatencyCatalyzerRemoteSfork,
                        b.result.report.total());
    sim::debugLog("boot Catalyzer-remote-sfork/%s from node %u: %.3f ms",
                  fn.app().name.c_str(), src.peer,
                  b.result.report.total().toMs());
    return std::move(b.result);
}

BootResult
CatalyzerRuntime::bootFromLanguageTemplate(FunctionArtifacts &fn,
                                           trace::TraceContext trace)
{
    auto &ctx = machine_.ctx();
    const auto &costs = ctx.costs();
    const apps::AppProfile &app = fn.app();
    SandboxInstance &tmpl = ensureLanguageTemplate(app.language);

    Boot b(ctx, fn, trace, "boot/Catalyzer-lang-template");
    b.span.attr("language", apps::languageName(app.language));
    b.number(boot_seq_, "lang");
    sfork(b, tmpl);
    SandboxInstance &inst = b.inst();
    {
        auto stage = b.report().appStage(b.tctx, "load-function");

        //
        // Load the function on demand: its own classes/modules beyond the
        // runtime core the template preloaded, its binary, and any heap it
        // needs beyond the template's.
        //
        const apps::AppProfile &base =
            tmpl.artifacts().app(); // the language's hello app
        const auto core = static_cast<std::size_t>(
            kLanguageTemplateCoreFraction *
            static_cast<double>(base.modulesLoaded));
        const std::size_t extra_modules =
            app.modulesLoaded > core ? app.modulesLoaded - core : 0;
        ctx.charge(app.perModuleCost *
                   static_cast<std::int64_t>(extra_modules) *
                   costs.gvisorAppInitFactor);

        const mem::PageIndex binary_va = inst.space().mapFile(
            fn.binary(), 0, app.binaryPages, mem::MapKind::FilePrivate,
            false, "fn-binary");
        inst.space().touchRange(binary_va, app.binaryPages / 4,
                                /*write=*/false, !fn.firstBootDone);

        if (app.heapPages() > tmpl.heapPages()) {
            const std::size_t extra = app.heapPages() - tmpl.heapPages();
            const mem::PageIndex extra_va =
                inst.space().mapAnon(extra, true, "fn-heap");
            inst.space().touchRange(extra_va, extra, /*write=*/true);
        }

        // The function's own I/O connections are opened as it initializes,
        // beyond the ones inherited from the language template.
        const std::size_t inherited = inst.guest().io().count();
        for (std::size_t i = inherited; i < app.ioConnections; ++i) {
            const bool socket = i % 4 == 1;
            if (socket) {
                ctx.charge(costs.openSocket);
                inst.guest().io().add(vfs::ConnKind::Socket,
                                      "tcp://backend:" + std::to_string(i),
                                      i < app.ioConnections / 4, i % 2 == 0);
            } else {
                vfs::FdEntry entry;
                const std::string path =
                    "/app/data/conn" + std::to_string(i);
                fn.fsServer().openReadOnly(path, &entry);
                inst.guest().io().add(vfs::ConnKind::File, path,
                                      i < app.ioConnections / 4, i % 2 == 0);
            }
        }
        inst.guest().setState(objgraph::ObjectGraph::synthesize(
            ctx.rng(), app.graphSpec()));
    }

    inst.setBootLatency(b.result.report.total());
    ctx.stats().observe(metrics::kBootLatencyCatalyzerLangTemplate,
                        b.result.report.total());
    ctx.stats().incr(metrics::kCatalyzerLangTemplateBoots);
    return std::move(b.result);
}

std::unique_ptr<SandboxInstance>
CatalyzerRuntime::buildTemplate(FunctionArtifacts &fn,
                                sim::CounterHandle counter)
{
    // Offline template initialization: restore an instance to the
    // func-entry point. The template is a *running* sandbox, so its I/O
    // connections come up (offline) before it collapses into the
    // transient single-thread state for sforking. Offline bring-up
    // tolerates reconnect faults: a connection whose retries fail stays
    // down and children reconnect it lazily.
    std::unique_ptr<SandboxInstance> tmpl =
        bootRestore(fn, /*warm=*/false).instance;
    for (auto &conn : tmpl->guest().io().all())
        snapshot::reconnectWithRetry(machine_.ctx(), conn, &fn.fsServer(),
                                     &injector_);
    tmpl->guest().threads().enterTransientSingleThread();
    tmpl->proc().setThreadCount(1);
    machine_.ctx().stats().incr(counter);
    return tmpl;
}

SandboxInstance &
CatalyzerRuntime::ensureTemplate(FunctionArtifacts &fn)
{
    if (!fn.templateSandbox)
        fn.templateSandbox =
            buildTemplate(fn, metrics::kCatalyzerTemplatesBuilt);
    return *fn.templateSandbox;
}

SandboxInstance &
CatalyzerRuntime::ensureLanguageTemplate(apps::Language lang)
{
    static const std::map<apps::Language, const char *> kBaseApp = {
        {apps::Language::C, "c-hello"},
        {apps::Language::Cpp, "ds-uniqueid"},
        {apps::Language::Java, "java-hello"},
        {apps::Language::Python, "python-hello"},
        {apps::Language::Ruby, "ruby-hello"},
        {apps::Language::NodeJs, "nodejs-hello"},
    };
    FunctionArtifacts &base_fn =
        lang_registry_.artifactsFor(apps::appByName(kBaseApp.at(lang)));
    if (!base_fn.templateSandbox)
        base_fn.templateSandbox =
            buildTemplate(base_fn, metrics::kCatalyzerLangTemplatesBuilt);
    return *base_fn.templateSandbox;
}

void
CatalyzerRuntime::prepareTemplate(FunctionArtifacts &fn)
{
    ensureTemplate(fn);
}

void
CatalyzerRuntime::prepareLanguageTemplate(apps::Language lang)
{
    ensureLanguageTemplate(lang);
}

} // namespace catalyzer::core
