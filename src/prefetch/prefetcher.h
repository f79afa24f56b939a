/**
 * @file
 * Prefetcher: eagerly populates a recorded working set into the shared
 * Base-EPT with large batched reads before the first request.
 *
 * Demand paging loads restore pages one 4 KiB random read at a time
 * (CostModel::demandFaultFileCold); the prefetcher instead submits the
 * manifest's stable set as readahead batches of the caller's batch size
 * (64 pages on the restore path), paying one setup per batch plus the
 * sequential per-page transfer (CostModel::prefetchBatchSetup /
 * prefetchSsdPerPage). The transfers are charged across the restore
 * worker pool, modelling reads that overlap the Base-EPT share-mapping
 * and the rest of the restore.
 * Anything outside the set still demand-pages as before.
 */

#ifndef CATALYZER_PREFETCH_PREFETCHER_H
#define CATALYZER_PREFETCH_PREFETCHER_H

#include <vector>

#include "mem/base_mapping.h"
#include "sim/context.h"
#include "trace/trace.h"

namespace catalyzer::prefetch {

/** Accounting of one prefetch pass. */
struct PrefetchReport
{
    /** Pages requested (the manifest's stable set, clamped to range). */
    std::size_t requestedPages = 0;
    /** Pages newly installed into the Base-EPT. */
    std::size_t prefetchedPages = 0;
    /** Pages that were already resident (no work). */
    std::size_t alreadyResident = 0;
    /** Of the prefetched pages, how many needed a storage read. */
    std::size_t storageReads = 0;
    /** Readahead batches submitted. */
    std::size_t batches = 0;
};

/**
 * Populate @p pages (image-relative, in recorded access order) into
 * @p base in batches of @p batch_pages. Emits one "prefetch-io" span
 * per pass under @p trace and bumps the prefetch.* counters.
 */
PrefetchReport prefetchIntoBase(sim::SimContext &ctx,
                                mem::BaseMapping &base,
                                const std::vector<mem::PageIndex> &pages,
                                std::size_t batch_pages,
                                trace::TraceContext trace = {});

} // namespace catalyzer::prefetch

#endif // CATALYZER_PREFETCH_PREFETCHER_H
