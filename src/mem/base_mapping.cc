#include "mem/base_mapping.h"

#include <vector>

#include "sim/logging.h"
#include "sim/metric_catalog.h"

namespace catalyzer::mem {

BaseMapping::BaseMapping(FrameStore &store, BackingFile &file,
                         PageIndex file_start, std::size_t npages,
                         std::string name)
    : store_(store), file_(file), file_start_(file_start),
      npages_(npages), name_(std::move(name))
{
    if (file_start + npages > file.npages())
        sim::panic("BaseMapping %s: range beyond file end", name_.c_str());
}

BaseMapping::~BaseMapping()
{
    table_.forEachRun([this](PageIndex, const PageTable::Run &run) {
        store_.unrefRange(run.frame0, run.npages);
    });
    if (attach_count_ != 0)
        sim::warn("BaseMapping %s destroyed with %zu attachments",
                  name_.c_str(), attach_count_);
}

FrameId
BaseMapping::populate(sim::SimContext &ctx, PageIndex page, bool cold)
{
    if (page >= npages_)
        sim::panic("BaseMapping %s: page %llu out of range", name_.c_str(),
                   static_cast<unsigned long long>(page));
    Pte pte;
    if (table_.lookup(page, &pte))
        return pte.frame;

    ctx.chargeCounted(metrics::kMemBaseFills, ctx.costs().demandFaultFile);
    const FrameId frame = file_.frameFor(ctx, file_start_ + page, cold);
    store_.ref(frame);
    table_.install(page, Pte{frame, false, false});
    return frame;
}

void
BaseMapping::populateRange(sim::SimContext &ctx, PageIndex start,
                           std::size_t npages, bool cold)
{
    if (start + npages > npages_)
        sim::panic("BaseMapping %s: page %llu out of range", name_.c_str(),
                   static_cast<unsigned long long>(start + npages - 1));
    // Collect the missing extents first: installing into the table
    // while walking it would invalidate the segment iteration.
    struct Gap
    {
        PageIndex start;
        std::size_t npages;
    };
    std::vector<Gap> gaps;
    table_.forEachSegmentIn(
        start, npages,
        [&gaps](PageIndex s, std::size_t m, const PageTable::Run *run) {
            if (run == nullptr)
                gaps.push_back(Gap{s, m});
        });
    std::vector<FrameId> frames;
    for (const Gap &gap : gaps) {
        ctx.chargeCounted(metrics::kMemBaseFills,
                          ctx.costs().demandFaultFile *
                              static_cast<double>(gap.npages),
                          static_cast<std::int64_t>(gap.npages));
        frames.clear();
        frames.reserve(gap.npages);
        for (std::size_t k = 0; k < gap.npages; ++k)
            frames.push_back(
                file_.frameFor(ctx, file_start_ + gap.start + k, cold));
        // Install maximal frame-contiguous extents in one go.
        std::size_t i = 0;
        while (i < gap.npages) {
            std::size_t j = i + 1;
            while (j < gap.npages &&
                   frames[j] == frames[i] + (j - i))
                ++j;
            store_.refRange(frames[i], j - i);
            table_.installRange(gap.start + i, j - i, frames[i], false,
                                false);
            i = j;
        }
    }
}

BaseMapping::PrefetchFill
BaseMapping::populatePrefetched(sim::SimContext &ctx, PageIndex page)
{
    if (page >= npages_)
        sim::panic("BaseMapping %s: prefetch of page %llu out of range",
                   name_.c_str(), static_cast<unsigned long long>(page));
    if (table_.lookup(page))
        return PrefetchFill::AlreadyResident;

    ctx.stats().incr(metrics::kMemBasePrefetchFills);
    bool from_cache = false;
    const FrameId frame =
        file_.prefetchFrame(ctx, file_start_ + page, &from_cache);
    store_.ref(frame);
    table_.install(page, Pte{frame, false, false});
    return from_cache ? PrefetchFill::FromPageCache
                      : PrefetchFill::FromStorage;
}

void
BaseMapping::populateAll(sim::SimContext &ctx, bool cold)
{
    populateRange(ctx, 0, npages_, cold);
}

void
BaseMapping::detach()
{
    if (attach_count_ == 0)
        sim::panic("BaseMapping %s: detach with no attachments",
                   name_.c_str());
    --attach_count_;
}

} // namespace catalyzer::mem
