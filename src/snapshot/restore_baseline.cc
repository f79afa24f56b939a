#include "snapshot/restore_baseline.h"

#include "sim/logging.h"
#include "sim/metric_catalog.h"
#include "snapshot/io_reconnect.h"

namespace catalyzer::snapshot {

mem::PageIndex
EagerRestoreEngine::restore(FuncImage &image, guest::GuestKernel &guest,
                            mem::AddressSpace &space,
                            vfs::FsServer *server, trace::BootReport &report,
                            trace::TraceContext trace)
{
    if (image.format() != ImageFormat::CompressedProto)
        sim::panic("EagerRestoreEngine needs a CompressedProto image");
    const auto &costs = ctx_.costs();

    //
    // Load application memory: decompress the memory section and copy
    // every page into fresh anonymous memory.
    //
    const auto &state = image.state();
    const auto mem_pages = static_cast<std::int64_t>(state.memoryPages);
    mem::PageIndex heap = 0;
    {
        auto stage = report.appStage(trace, "restore-app-memory");
        stage.attr("pages", mem_pages);
        ctx_.chargeCounted(metrics::kRestoreDecompressedPages,
                           costs.decompressPerPage * mem_pages, mem_pages);
        heap = space.mapAnon(state.memoryPages, true, "restored-heap");
        space.touchRange(heap, state.memoryPages, /*write=*/true,
                         /*cold=*/true);
    }

    //
    // Recover kernel metadata: deserialize objects one by one, then
    // re-do non-I/O kernel state (thread contexts, timers, mounts...).
    //
    {
        auto stage = report.appStage(trace, "restore-kernel");
        const auto nobjects =
            static_cast<std::int64_t>(image.proto().objectCount());
        stage.attr("objects", nobjects);
        ctx_.chargeCounted(metrics::kRestoreDeserializedObjects,
                           costs.deserializeObject * nobjects, nobjects);
        objgraph::ObjectGraph graph = image.proto().reconstruct();
        ctx_.chargeCounted(metrics::kRestoreRedoneObjects,
                           costs.redoObject * nobjects, nobjects);
        guest.setState(std::move(graph));
        if (!guest.threads().started())
            guest.startGoRuntime();
        for (int i = 0; i < state.app->blockingThreads; ++i)
            guest.threads().addBlockingThread();
    }

    //
    // Reconnect every checkpointed I/O connection, eagerly.
    //
    {
        auto stage = report.appStage(trace, "restore-reconnect-io");
        stage.attr("connections",
                   static_cast<std::int64_t>(image.ioTable().size()));
        guest.io().cloneFrom(image.ioTable());
        for (vfs::IoConnection &conn : guest.io().all()) {
            conn.established = false;
            reconnectConnection(ctx_, conn, server, stage.context());
        }
    }

    ctx_.stats().incr(metrics::kRestoreEagerRestores);
    return heap;
}

} // namespace catalyzer::snapshot
