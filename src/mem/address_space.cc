#include "mem/address_space.h"

#include <algorithm>

#include "sim/logging.h"
#include "sim/metric_catalog.h"

namespace catalyzer::mem {

AddressSpace::AddressSpace(sim::SimContext &ctx, FrameStore &store,
                           std::string name)
    : ctx_(ctx), store_(store), name_(std::move(name))
{
}

AddressSpace::~AddressSpace()
{
    // Scattered single-page runs (COW faults) usually carry frames that
    // were allocated consecutively; merging frame extents before the
    // unref turns hundreds of span splits into a few range drops.
    std::vector<std::pair<FrameId, std::size_t>> extents;
    extents.reserve(table_.runCount());
    table_.forEachRun([&extents](PageIndex, const PageTable::Run &run) {
        extents.emplace_back(run.frame0, run.npages);
    });
    std::sort(extents.begin(), extents.end());
    std::size_t i = 0;
    while (i < extents.size()) {
        FrameId f0 = extents[i].first;
        std::size_t n = extents[i].second;
        std::size_t j = i + 1;
        while (j < extents.size() && extents[j].first == f0 + n) {
            n += extents[j].second;
            ++j;
        }
        store_.unrefRange(f0, n);
        i = j;
    }
    if (base_)
        base_->detach();
}

PageIndex
AddressSpace::mapAnon(std::size_t npages, bool writable, std::string name)
{
    const PageIndex start = next_va_;
    next_va_ += npages + 1; // one-page guard gap
    vmas_.push_back(Vma{start, npages, MapKind::Anon, writable, nullptr,
                        0, std::move(name)});
    ctx_.chargeCounted(metrics::kMemMmapCalls, ctx_.costs().mmapRegion);
    return start;
}

PageIndex
AddressSpace::mapFile(BackingFile &file, PageIndex file_start,
                      std::size_t npages, MapKind kind, bool writable,
                      std::string name)
{
    if (kind == MapKind::Anon)
        sim::panic("mapFile with MapKind::Anon");
    if (file_start + npages > file.npages())
        sim::panic("mapFile %s: range beyond EOF", name.c_str());
    const PageIndex start = next_va_;
    next_va_ += npages + 1;
    vmas_.push_back(Vma{start, npages, kind, writable, &file, file_start,
                        std::move(name)});
    ctx_.chargeCounted(metrics::kMemMmapCalls, ctx_.costs().mmapRegion);
    return start;
}

PageIndex
AddressSpace::attachBase(std::shared_ptr<BaseMapping> base)
{
    if (base_)
        sim::panic("AddressSpace %s: base already attached", name_.c_str());
    base_ = std::move(base);
    base_->attach();
    base_va_start_ = next_va_;
    next_va_ += base_->npages() + 1;
    // Sharing the mapping is one mmap of the already-open image: the
    // whole point of the share-mapping operation is that no file loading
    // happens here.
    ctx_.chargeCounted(metrics::kMemBaseAttach, ctx_.costs().mmapRegion);
    return base_va_start_;
}

void
AddressSpace::unmap(PageIndex start)
{
    auto it = std::find_if(vmas_.begin(), vmas_.end(),
                           [start](const Vma &v) { return v.start == start; });
    if (it == vmas_.end())
        sim::panic("AddressSpace %s: unmap of unknown VMA", name_.c_str());
    table_.forEachSegmentIn(
        it->start, it->npages,
        [this](PageIndex, std::size_t m, const PageTable::Run *run) {
            if (run != nullptr)
                store_.unrefRange(run->frame0, m);
        });
    table_.eraseRange(it->start, it->npages);
    vmas_.erase(it);
    vma_cache_ = static_cast<std::size_t>(-1);
    ctx_.chargeCounted(metrics::kMemMunmapCalls, ctx_.costs().mmapRegion);
}

const Vma *
AddressSpace::findVma(PageIndex page) const
{
    // vmas_ is sorted by start (regions are mapped at ascending VAs and
    // never split), so one binary search finds the candidate; the
    // last-hit cache short-circuits the streaks every touch loop has.
    if (vma_cache_ < vmas_.size() && vmas_[vma_cache_].contains(page))
        return &vmas_[vma_cache_];
    auto it = std::upper_bound(
        vmas_.begin(), vmas_.end(), page,
        [](PageIndex p, const Vma &v) { return p < v.start; });
    if (it == vmas_.begin())
        return nullptr;
    --it;
    if (!it->contains(page))
        return nullptr;
    vma_cache_ = static_cast<std::size_t>(it - vmas_.begin());
    return &*it;
}

void
AddressSpace::installCowCopy(PageIndex page, FrameId src_frame)
{
    const FrameId copy = store_.allocate(FrameSource::Anonymous);
    (void)src_frame; // contents are not modelled, only accounting
    table_.install(page, Pte{copy, true, false});
}

void
AddressSpace::notifyRange(PageIndex start, std::size_t npages, bool write,
                          FaultResult result)
{
    if (observer_ != nullptr && npages > 0 && result != FaultResult::None)
        observer_->onFaultRange(start, npages, write, result);
}

FaultResult
AddressSpace::resolveBaseAccess(PageIndex page, bool write, bool cold)
{
    const PageIndex rel = page - base_va_start_;
    Pte bpte;
    bool filled = false;
    if (!base_->lookup(rel, &bpte)) {
        bpte.frame = base_->populate(ctx_, rel, cold);
        filled = true;
    }
    if (!write) {
        // The hardware merges Private- and Base-EPT; a read through the
        // base needs no private entry and no further cost.
        return filled ? FaultResult::BaseFill : FaultResult::BaseHit;
    }
    // Write: copy the base page into the Private-EPT.
    ctx_.chargeCounted(metrics::kMemCowFaults, ctx_.costs().cowFault);
    installCowCopy(page, bpte.frame);
    return FaultResult::BaseCow;
}

void
AddressSpace::installBaseCows(PageIndex start, std::size_t count,
                              std::size_t stride)
{
    if (count == 0)
        return;
    const auto n = static_cast<std::int64_t>(count);
    ctx_.chargeCounted(metrics::kMemCowFaults, ctx_.costs().cowFault * n, n);
    const FrameId copies = store_.allocateRange(count, FrameSource::Anonymous);
    table_.installStrided(start, count, stride, copies, true, false);
}

FaultTally
AddressSpace::touchStrided(PageIndex start, std::size_t count,
                           std::size_t stride, std::size_t writes)
{
    if (stride == 0)
        sim::panic("AddressSpace %s: touchStrided with stride 0",
                   name_.c_str());
    FaultTally tally;
    if (observer_ != nullptr) {
        for (std::size_t k = 0; k < count; ++k)
            ++tally[touch(start + k * stride, k < writes)];
        return tally;
    }
    const PageIndex base_lo = base_ ? base_va_start_ : 0;
    const PageIndex base_hi = base_ ? base_va_start_ + base_->npages() : 0;
    PageTable::Walk priv;
    PageTable::Walk shared;
    bool priv_valid = false;
    bool shared_valid = false;
    // Pending BaseCow pages: cow_start, cow_start + stride, ... They are
    // absent from the Private-EPT until the batch is flushed, and every
    // page probed meanwhile lies above them, so the walk stays valid.
    PageIndex cow_start = 0;
    std::size_t cow_count = 0;
    for (std::size_t k = 0; k < count; ++k) {
        const PageIndex page = start + k * stride;
        const bool write = k < writes;
        if (!priv_valid) {
            priv.seek(table_, page);
            priv_valid = true;
        }
        if (const PageTable::Run *run = priv.find(page)) {
            if (!write || run->writable) {
                ++tally[FaultResult::None];
                continue;
            }
        } else if (page >= base_lo && page < base_hi) {
            const PageIndex rel = page - base_lo;
            if (!shared_valid) {
                shared.seek(base_->table(), rel);
                shared_valid = true;
            }
            if (shared.find(rel) != nullptr) {
                if (!write) {
                    ++tally[FaultResult::BaseHit];
                    continue;
                }
                if (cow_count > 0 && page != cow_start + cow_count * stride) {
                    installBaseCows(cow_start, cow_count, stride);
                    cow_count = 0;
                    priv_valid = false;
                }
                if (cow_count == 0)
                    cow_start = page;
                ++cow_count;
                ++tally[FaultResult::BaseCow];
                continue;
            }
        }
        // COW of a present page, a base fill or a page outside the
        // base: the per-page path, after the batch it must follow.
        installBaseCows(cow_start, cow_count, stride);
        cow_count = 0;
        ++tally[resolveTouch(page, write, /*cold=*/false)];
        priv_valid = false;
        shared_valid = false;
    }
    installBaseCows(cow_start, cow_count, stride);
    return tally;
}

FaultResult
AddressSpace::touch(PageIndex page, bool write, bool cold)
{
    const FaultResult result = resolveTouch(page, write, cold);
    notifyRange(page, 1, write, result);
    return result;
}

FaultResult
AddressSpace::resolveTouch(PageIndex page, bool write, bool cold)
{
    Pte pte;
    if (table_.lookup(page, &pte)) {
        if (!write || pte.writable)
            return FaultResult::None;
        if (!pte.cow)
            sim::panic("AddressSpace %s: write to read-only page %llu",
                       name_.c_str(),
                       static_cast<unsigned long long>(page));
        // COW write fault.
        const std::size_t refs = store_.refCount(pte.frame);
        const bool cache_backed =
            store_.source(pte.frame) == FrameSource::PageCache;
        if (refs == 1 && !cache_backed) {
            // Sole owner: reuse in place, no copy.
            table_.setFlags(page, true, false);
            ctx_.chargeCounted(metrics::kMemCowReuse,
                               ctx_.costs().demandFaultAnon);
            return FaultResult::CowReuse;
        }
        ctx_.chargeCounted(metrics::kMemCowFaults, ctx_.costs().cowFault);
        installCowCopy(page, pte.frame);
        store_.unref(pte.frame);
        return FaultResult::Cow;
    }

    if (base_ && page >= base_va_start_ &&
        page < base_va_start_ + base_->npages()) {
        return resolveBaseAccess(page, write, cold);
    }

    const Vma *vma = findVma(page);
    if (!vma)
        sim::panic("AddressSpace %s: fault on unmapped page %llu",
                   name_.c_str(), static_cast<unsigned long long>(page));
    if (write && !vma->writable)
        sim::panic("AddressSpace %s: write to read-only VMA %s",
                   name_.c_str(), vma->name.c_str());

    switch (vma->kind) {
      case MapKind::Anon: {
        ctx_.chargeCounted(metrics::kMemMinorFaultsAnon,
                           ctx_.costs().demandFaultAnon);
        const FrameId frame = store_.allocate(FrameSource::Anonymous);
        table_.install(page, Pte{frame, vma->writable, false});
        return FaultResult::MinorAnon;
      }
      case MapKind::FilePrivate: {
        ctx_.chargeCounted(metrics::kMemMinorFaultsFile,
                           ctx_.costs().demandFaultFile);
        const PageIndex fpage = vma->fileStart + (page - vma->start);
        const FrameId frame = vma->file->frameFor(ctx_, fpage, cold);
        if (write) {
            // Fill and immediately COW.
            ctx_.chargeCounted(metrics::kMemCowFaults, ctx_.costs().cowFault);
            installCowCopy(page, frame);
            return FaultResult::Cow;
        }
        store_.ref(frame);
        table_.install(page, Pte{frame, false, true});
        return FaultResult::MinorFile;
      }
    }
    sim::panic("unreachable");
}

std::size_t
AddressSpace::resolvePresentRange(PageIndex start, std::size_t npages,
                                  FrameId frame0, bool writable, bool cow,
                                  bool write)
{
    if (!write || writable)
        return 0; // FaultResult::None for the whole extent
    if (!cow)
        sim::panic("AddressSpace %s: write to read-only page %llu",
                   name_.c_str(), static_cast<unsigned long long>(start));
    // Split the extent by frame sharing: sole-owner anonymous frames
    // resolve by remap (CowReuse), everything else copies. Frames
    // within one run are distinct, so the per-page decision sequence
    // is exactly what a page-by-page loop would have computed.
    std::size_t faults = 0;
    PageIndex page = start;
    store_.forEachSegment(
        frame0, npages,
        [&](std::size_t m, std::size_t refs, FrameSource src) {
            const auto n = static_cast<std::int64_t>(m);
            const FrameId f0 = frame0 + (page - start);
            if (refs == 1 && src != FrameSource::PageCache) {
                table_.setFlagsRange(page, m, true, false);
                ctx_.chargeCounted(metrics::kMemCowReuse,
                                   ctx_.costs().demandFaultAnon *
                                       static_cast<double>(n),
                                   n);
                notifyRange(page, m, true, FaultResult::CowReuse);
            } else {
                ctx_.chargeCounted(metrics::kMemCowFaults,
                                   ctx_.costs().cowFault *
                                       static_cast<double>(n),
                                   n);
                const FrameId copies =
                    store_.allocateRange(m, FrameSource::Anonymous);
                table_.eraseRange(page, m);
                table_.installRange(page, m, copies, true, false);
                store_.unrefRange(f0, m);
                notifyRange(page, m, true, FaultResult::Cow);
            }
            faults += m;
            page += m;
        });
    return faults;
}

void
AddressSpace::installFileFrames(PageIndex start,
                                const std::vector<FrameId> &frames)
{
    std::size_t i = 0;
    while (i < frames.size()) {
        std::size_t j = i + 1;
        while (j < frames.size() && frames[j] == frames[i] + (j - i))
            ++j;
        store_.refRange(frames[i], j - i);
        table_.installRange(start + i, j - i, frames[i], false, true);
        i = j;
    }
}

std::size_t
AddressSpace::faultVmaGap(const Vma &vma, PageIndex start,
                          std::size_t npages, bool write, bool cold)
{
    if (write && !vma.writable)
        sim::panic("AddressSpace %s: write to read-only VMA %s",
                   name_.c_str(), vma.name.c_str());
    const auto n = static_cast<std::int64_t>(npages);
    switch (vma.kind) {
      case MapKind::Anon: {
        ctx_.chargeCounted(metrics::kMemMinorFaultsAnon,
                           ctx_.costs().demandFaultAnon *
                               static_cast<double>(n),
                           n);
        const FrameId f0 =
            store_.allocateRange(npages, FrameSource::Anonymous);
        table_.installRange(start, npages, f0, vma.writable, false);
        notifyRange(start, npages, write, FaultResult::MinorAnon);
        return npages;
      }
      case MapKind::FilePrivate: {
        ctx_.chargeCounted(metrics::kMemMinorFaultsFile,
                           ctx_.costs().demandFaultFile *
                               static_cast<double>(n),
                           n);
        const PageIndex fpage0 = vma.fileStart + (start - vma.start);
        if (write) {
            // Fill the page cache (ascending order keeps the cold-miss
            // RNG draws identical to the per-page loop), then COW.
            for (std::size_t k = 0; k < npages; ++k)
                vma.file->frameFor(ctx_, fpage0 + k, cold);
            ctx_.chargeCounted(metrics::kMemCowFaults,
                               ctx_.costs().cowFault *
                                   static_cast<double>(n),
                               n);
            const FrameId f0 =
                store_.allocateRange(npages, FrameSource::Anonymous);
            table_.installRange(start, npages, f0, true, false);
            notifyRange(start, npages, write, FaultResult::Cow);
            return npages;
        }
        std::vector<FrameId> frames;
        frames.reserve(npages);
        for (std::size_t k = 0; k < npages; ++k)
            frames.push_back(vma.file->frameFor(ctx_, fpage0 + k, cold));
        installFileFrames(start, frames);
        notifyRange(start, npages, write, FaultResult::MinorFile);
        return npages;
      }
    }
    sim::panic("unreachable");
}

std::size_t
AddressSpace::touchVmaRange(const Vma &vma, PageIndex start,
                            std::size_t npages, bool write, bool cold)
{
    // Snapshot the present/absent segmentation first: fault handling
    // installs runs, which would invalidate a live walk. Processing an
    // earlier segment never changes a later one (segments are disjoint
    // and frames within one space are distinct per page).
    struct Seg
    {
        PageIndex start;
        std::size_t npages;
        bool present;
        PageTable::Run run; // valid when present
    };
    std::vector<Seg> segs;
    table_.forEachSegmentIn(
        start, npages,
        [&segs](PageIndex s, std::size_t m, const PageTable::Run *run) {
            segs.push_back(Seg{s, m, run != nullptr,
                               run != nullptr ? *run : PageTable::Run{}});
        });
    std::size_t faults = 0;
    for (const Seg &seg : segs) {
        if (seg.present)
            faults += resolvePresentRange(seg.start, seg.npages,
                                          seg.run.frame0, seg.run.writable,
                                          seg.run.cow, write);
        else
            faults += faultVmaGap(vma, seg.start, seg.npages, write, cold);
    }
    return faults;
}

std::size_t
AddressSpace::touchBaseRange(PageIndex start, std::size_t npages,
                             bool write, bool cold)
{
    struct Seg
    {
        PageIndex start;
        std::size_t npages;
        bool present;
        PageTable::Run run;
    };
    std::vector<Seg> segs;
    table_.forEachSegmentIn(
        start, npages,
        [&segs](PageIndex s, std::size_t m, const PageTable::Run *run) {
            segs.push_back(Seg{s, m, run != nullptr,
                               run != nullptr ? *run : PageTable::Run{}});
        });
    std::size_t faults = 0;
    for (const Seg &seg : segs) {
        if (seg.present) {
            // Privately COWed base pages resolve like any present run.
            faults += resolvePresentRange(seg.start, seg.npages,
                                          seg.run.frame0, seg.run.writable,
                                          seg.run.cow, write);
            continue;
        }
        // Absent in the Private-EPT: resolve through the base, split
        // by base residency so fills charge in one aggregated call.
        struct BSeg
        {
            PageIndex rel;
            std::size_t npages;
            bool resident;
        };
        std::vector<BSeg> bsegs;
        base_->forEachSegmentIn(
            seg.start - base_va_start_, seg.npages,
            [&bsegs](PageIndex rel, std::size_t m, bool resident) {
                bsegs.push_back(BSeg{rel, m, resident});
            });
        for (const BSeg &bseg : bsegs) {
            const PageIndex va = base_va_start_ + bseg.rel;
            if (!bseg.resident)
                base_->populateRange(ctx_, bseg.rel, bseg.npages, cold);
            if (write) {
                const auto n = static_cast<std::int64_t>(bseg.npages);
                ctx_.chargeCounted(metrics::kMemCowFaults,
                                   ctx_.costs().cowFault *
                                       static_cast<double>(n),
                                   n);
                const FrameId copies = store_.allocateRange(
                    bseg.npages, FrameSource::Anonymous);
                table_.installRange(va, bseg.npages, copies, true, false);
                notifyRange(va, bseg.npages, true, FaultResult::BaseCow);
            } else {
                notifyRange(va, bseg.npages, false,
                            bseg.resident ? FaultResult::BaseHit
                                          : FaultResult::BaseFill);
            }
            faults += bseg.npages;
        }
    }
    return faults;
}

std::size_t
AddressSpace::touchRange(PageIndex start, std::size_t npages, bool write,
                         bool cold)
{
    std::size_t faults = 0;
    const PageIndex end = start + npages;
    PageIndex p = start;
    while (p < end) {
        if (base_ && p >= base_va_start_ &&
            p < base_va_start_ + base_->npages()) {
            const PageIndex seg_end =
                std::min<PageIndex>(end, base_va_start_ + base_->npages());
            faults += touchBaseRange(p, static_cast<std::size_t>(seg_end - p),
                                     write, cold);
            p = seg_end;
            continue;
        }
        const Vma *vma = findVma(p);
        if (!vma)
            sim::panic("AddressSpace %s: fault on unmapped page %llu",
                       name_.c_str(), static_cast<unsigned long long>(p));
        const PageIndex seg_end =
            std::min<PageIndex>(end, vma->start + vma->npages);
        faults += touchVmaRange(*vma, p, static_cast<std::size_t>(seg_end - p),
                                write, cold);
        p = seg_end;
    }
    return faults;
}

std::unique_ptr<AddressSpace>
AddressSpace::forkCow(std::string child_name)
{
    auto child = std::make_unique<AddressSpace>(ctx_, store_,
                                                std::move(child_name));
    child->vmas_ = vmas_;
    child->next_va_ = next_va_;

    const auto &costs = ctx_.costs();
    ctx_.charge(costs.sforkPerVma * static_cast<std::int64_t>(vmas_.size()));
    ctx_.clock().advanceParallel(
        costs.sforkPtePerBatch,
        static_cast<std::int64_t>(
            (table_.presentPages() + kPtesPerTable - 1) / kPtesPerTable),
        1);

    // Downgrade every extent to pending-COW in the parent, then share
    // each frame once and copy the run map wholesale — the child's table
    // is exactly the parent's post-mark table, run for run.
    for (const Vma &vma : vmas_)
        table_.markCowRange(vma.start, vma.npages);
    if (base_) // privately COWed base pages downgrade like anon memory
        table_.markCowRange(base_va_start_, base_->npages());
    table_.forEachRun([this](PageIndex, const PageTable::Run &run) {
        store_.refRange(run.frame0, run.npages);
    });
    child->table_ = table_;
    ctx_.stats().incr(metrics::kMemForkCowPages,
                      static_cast<std::int64_t>(table_.presentPages()));

    if (base_) {
        child->base_ = base_;
        child->base_->attach();
        child->base_va_start_ = base_va_start_;
    }
    return child;
}

std::size_t
AddressSpace::rssPages() const
{
    std::size_t pages = table_.presentPages();
    if (base_)
        pages += base_->residentPages();
    return pages;
}

double
AddressSpace::pssBytes() const
{
    double bytes = 0.0;
    table_.forEachRun([&](PageIndex, const PageTable::Run &run) {
        store_.forEachSegment(
            run.frame0, run.npages,
            [&](std::size_t m, std::size_t refs, FrameSource src) {
                std::size_t divisor = refs;
                if (src == FrameSource::PageCache && divisor > 1)
                    --divisor; // the page cache's own ref does not count
                bytes += static_cast<double>(m) *
                         (static_cast<double>(kPageSize) /
                          static_cast<double>(
                              std::max<std::size_t>(divisor, 1)));
            });
    });
    if (base_ && base_->attachCount() > 0) {
        bytes += static_cast<double>(base_->residentBytes()) /
                 static_cast<double>(base_->attachCount());
    }
    return bytes;
}

} // namespace catalyzer::mem
