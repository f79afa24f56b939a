#include "mem/backing_file.h"

#include <algorithm>
#include <vector>

#include "sim/logging.h"
#include "sim/metric_catalog.h"

namespace catalyzer::mem {

BackingFile::BackingFile(FrameStore &store, std::string name,
                         std::size_t npages)
    : store_(store), name_(std::move(name)), npages_(npages)
{
}

BackingFile::~BackingFile()
{
    evict();
}

FrameId
BackingFile::frameFor(sim::SimContext &ctx, PageIndex page,
                      bool assume_cold)
{
    if (page >= npages_)
        sim::panic("BackingFile %s: page %llu beyond EOF (%zu pages)",
                   name_.c_str(), static_cast<unsigned long long>(page),
                   npages_);
    auto it = cache_.find(page);
    if (it != cache_.end()) {
        ctx.stats().incr(metrics::kMemPageCacheHits);
        return it->second;
    }
    // Page-cache fill. On a cold boot some of these go to storage.
    const auto &costs = ctx.costs();
    if (assume_cold && ctx.rng().chance(costs.pageCacheMissColdBoot)) {
        ctx.chargeCounted(metrics::kMemPageCacheStorageReads,
                          costs.demandFaultFileCold);
    } else {
        ctx.stats().incr(metrics::kMemPageCacheFills);
    }
    const FrameId frame = store_.allocate(FrameSource::PageCache);
    cache_.emplace(page, frame);
    return frame;
}

FrameId
BackingFile::prefetchFrame(sim::SimContext &ctx, PageIndex page,
                           bool *from_cache)
{
    if (page >= npages_)
        sim::panic("BackingFile %s: prefetch of page %llu beyond EOF "
                   "(%zu pages)",
                   name_.c_str(), static_cast<unsigned long long>(page),
                   npages_);
    auto it = cache_.find(page);
    if (it != cache_.end()) {
        if (from_cache)
            *from_cache = true;
        ctx.stats().incr(metrics::kMemPageCacheHits);
        return it->second;
    }
    if (from_cache)
        *from_cache = false;
    ctx.stats().incr(metrics::kMemPageCachePrefetchFills);
    const FrameId frame = store_.allocate(FrameSource::PageCache);
    cache_.emplace(page, frame);
    return frame;
}

void
BackingFile::evict()
{
    // Release each run of consecutive frames with one call. FrameIds
    // are never reused and spans stay maximal, so release order
    // changes neither a refcount nor any later id.
    std::vector<FrameId> frames;
    frames.reserve(cache_.size());
    for (const auto &[page, frame] : cache_)
        frames.push_back(frame);
    cache_.clear();
    std::sort(frames.begin(), frames.end());
    for (std::size_t i = 0; i < frames.size();) {
        std::size_t j = i + 1;
        while (j < frames.size() && frames[j] == frames[j - 1] + 1)
            ++j;
        store_.unrefRange(frames[i], j - i);
        i = j;
    }
}

} // namespace catalyzer::mem
