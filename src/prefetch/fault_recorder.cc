#include "prefetch/fault_recorder.h"

#include <algorithm>

#include "sim/metric_catalog.h"

namespace catalyzer::prefetch {

FaultRecorder::FaultRecorder(mem::PageIndex window_start,
                             std::size_t window_pages)
    : window_start_(window_start), window_pages_(window_pages)
{
}

void
FaultRecorder::enableRecording(std::shared_ptr<WorkingSetManifest> manifest)
{
    manifest_ = std::move(manifest);
}

void
FaultRecorder::enableAudit(std::vector<mem::PageIndex> prefetched_pages)
{
    audit_ = true;
    prefetched_ = std::move(prefetched_pages);
    std::sort(prefetched_.begin(), prefetched_.end());
}

void
FaultRecorder::onFaultRange(mem::PageIndex start, std::size_t npages,
                            bool /*write*/, mem::FaultResult /*result*/)
{
    if (!active_)
        return;
    const mem::PageIndex lo = std::max(start, window_start_);
    const mem::PageIndex hi =
        std::min(start + npages, window_start_ + window_pages_);
    for (mem::PageIndex page = lo; page < hi; ++page) {
        const mem::PageIndex rel = page - window_start_;
        if (seen_.insert(rel).second)
            order_.push_back(rel);
    }
}

void
FaultRecorder::finish(sim::StatRegistry &stats)
{
    if (!active_)
        return;
    active_ = false;

    if (manifest_ && !manifest_->frozen()) {
        manifest_->addTrace(order_);
        stats.incr(metrics::kPrefetchTracesRecorded);
    }

    if (audit_) {
        std::size_t avoided = 0;
        for (mem::PageIndex page : order_) {
            if (std::binary_search(prefetched_.begin(), prefetched_.end(),
                                   page))
                ++avoided;
        }
        const std::size_t wasted = prefetched_.size() - avoided;
        stats.incr(metrics::kPrefetchDemandFaultsAvoided,
                   static_cast<std::int64_t>(avoided));
        stats.incr(metrics::kPrefetchWastedPages,
                   static_cast<std::int64_t>(wasted));
        const double hit_rate =
            order_.empty() ? 1.0
                           : static_cast<double>(avoided) /
                                 static_cast<double>(order_.size());
        stats.observeMs(metrics::kPrefetchManifestHitRate, hit_rate);
    }
}

} // namespace catalyzer::prefetch
