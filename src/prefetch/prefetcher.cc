#include "prefetch/prefetcher.h"

#include <algorithm>

#include "sim/metric_catalog.h"

namespace catalyzer::prefetch {

PrefetchReport
prefetchIntoBase(sim::SimContext &ctx, mem::BaseMapping &base,
                 const std::vector<mem::PageIndex> &pages,
                 std::size_t batch_pages, trace::TraceContext trace)
{
    const auto &costs = ctx.costs();
    PrefetchReport report;
    batch_pages = std::max<std::size_t>(batch_pages, 1);

    trace::ScopedSpan span(trace, "prefetch-io");

    std::size_t installed_total = 0;
    for (std::size_t begin = 0; begin < pages.size();
         begin += batch_pages) {
        const std::size_t end =
            std::min(pages.size(), begin + batch_pages);
        std::size_t installed = 0;
        std::size_t storage = 0;
        for (std::size_t i = begin; i < end; ++i) {
            const mem::PageIndex page = pages[i];
            if (page >= base.npages())
                continue; // stale entry beyond the image extent
            ++report.requestedPages;
            switch (base.populatePrefetched(ctx, page)) {
              case mem::BaseMapping::PrefetchFill::AlreadyResident:
                ++report.alreadyResident;
                break;
              case mem::BaseMapping::PrefetchFill::FromPageCache:
                ++installed;
                break;
              case mem::BaseMapping::PrefetchFill::FromStorage:
                ++installed;
                ++storage;
                break;
            }
        }
        if (installed == 0)
            continue; // everything resident: no readahead submitted
        ++report.batches;
        // One readahead submission; the sequential transfer overlaps
        // the rest of the restore across the worker pool.
        ctx.charge(costs.prefetchBatchSetup);
        ctx.chargeParallel(costs.prefetchSsdPerPage,
                           static_cast<std::int64_t>(storage));
        report.prefetchedPages += installed;
        report.storageReads += storage;
        installed_total += installed;
    }

    // PTE installation for the newly mapped pages, per 512-entry batch.
    if (installed_total > 0) {
        ctx.charge(costs.ptePopulatePerBatch *
                   static_cast<std::int64_t>(
                       (installed_total + mem::kPtesPerTable - 1) /
                       mem::kPtesPerTable));
    }

    ctx.stats().incr(metrics::kPrefetchPagesPrefetched,
                     static_cast<std::int64_t>(report.prefetchedPages));
    ctx.stats().incr(metrics::kPrefetchPagesAlreadyResident,
                     static_cast<std::int64_t>(report.alreadyResident));
    ctx.stats().incr(metrics::kPrefetchStorageReads,
                     static_cast<std::int64_t>(report.storageReads));
    ctx.stats().incr(metrics::kPrefetchBatches,
                     static_cast<std::int64_t>(report.batches));

    span.attr("pages", static_cast<std::int64_t>(report.prefetchedPages));
    span.attr("already_resident",
              static_cast<std::int64_t>(report.alreadyResident));
    span.attr("batches", static_cast<std::int64_t>(report.batches));
    span.attr("storage_reads",
              static_cast<std::int64_t>(report.storageReads));
    return report;
}

} // namespace catalyzer::prefetch
