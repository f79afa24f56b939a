#include "mem/page_table.h"

#include "sim/logging.h"

namespace catalyzer::mem {

namespace {

bool
flagsEqual(const PageTable::Run &a, const PageTable::Run &b)
{
    return a.writable == b.writable && a.cow == b.cow;
}

/** True when @p b starts exactly where @p a ends, frames included. */
bool
extends(PageIndex a_start, const PageTable::Run &a, PageIndex b_start,
        const PageTable::Run &b)
{
    return a_start + a.npages == b_start &&
           a.frame0 + a.npages == b.frame0 && flagsEqual(a, b);
}

} // namespace

PageTable::RunMap::iterator
PageTable::findRun(PageIndex page)
{
    auto it = runs_.upper_bound(page);
    if (it == runs_.begin())
        return runs_.end();
    --it;
    if (page < it->first + it->second.npages)
        return it;
    return runs_.end();
}

PageTable::RunMap::const_iterator
PageTable::upperBound(PageIndex page) const
{
    // A jump past more runs than this walks from the root instead, so
    // a far probe costs a few steps more than a plain tree walk.
    constexpr int kCursorSteps = 8;
    if (cursor_.valid && page >= cursor_.page) {
        auto it = cursor_.next;
        for (int step = 0; step < kCursorSteps; ++step, ++it) {
            if (it == runs_.end() || it->first > page)
                return it;
        }
    }
    return runs_.upper_bound(page);
}

bool
PageTable::lookupSlow(PageIndex page, Pte *out) const
{
    // One lookup primes both caches with the run/gap pair around
    // @p page, so an ascending probe stream (strided touch loops)
    // alternating between present pages and holes stays inline; the
    // cursor then steps it on to the next pair.
    auto next = upperBound(page);
    cursor_.next = next;
    cursor_.page = page;
    cursor_.valid = true;
    PageIndex gap_lo = 0;
    if (next != runs_.begin()) {
        auto prev = std::prev(next);
        const Run &run = prev->second;
        if (page < prev->first + run.npages) {
            cache_start_ = prev->first;
            cache_run_ = run;
            miss_lo_ = prev->first + run.npages;
            miss_hi_ = next != runs_.end() ? next->first : ~PageIndex{0};
            miss_valid_ = true;
            if (out != nullptr)
                *out = Pte{run.frame0 + (page - prev->first), run.writable,
                           run.cow};
            return true;
        }
        gap_lo = prev->first + run.npages;
    }
    miss_lo_ = gap_lo;
    miss_hi_ = next != runs_.end() ? next->first : ~PageIndex{0};
    miss_valid_ = true;
    if (next != runs_.end()) {
        cache_start_ = next->first;
        cache_run_ = next->second;
    }
    return false;
}

void
PageTable::splitAt(PageIndex at)
{
    auto it = findRun(at);
    if (it == runs_.end() || it->first == at)
        return;
    const std::size_t head = static_cast<std::size_t>(at - it->first);
    Run tail = it->second;
    tail.npages -= head;
    tail.frame0 += head;
    it->second.npages = head;
    runs_.emplace_hint(std::next(it), at, tail);
}

PageTable::RunMap::iterator
PageTable::coalesce(RunMap::iterator it)
{
    if (it != runs_.begin()) {
        auto prev = std::prev(it);
        if (extends(prev->first, prev->second, it->first, it->second)) {
            prev->second.npages += it->second.npages;
            runs_.erase(it);
            it = prev;
        }
    }
    auto next = std::next(it);
    if (next != runs_.end() &&
        extends(it->first, it->second, next->first, next->second)) {
        it->second.npages += next->second.npages;
        runs_.erase(next);
    }
    return it;
}

void
PageTable::install(PageIndex page, Pte pte)
{
    invalidateCache();
    const Run one{1, pte.frame, pte.writable, pte.cow};
    auto next = runs_.upper_bound(page);
    if (next != runs_.begin()) {
        auto prev = std::prev(next);
        if (page < prev->first + prev->second.npages) {
            // Present. COW resolution overwhelmingly replaces a
            // single-page run; overwrite it in place instead of
            // erase + re-insert.
            if (prev->second.npages == 1) {
                prev->second = one;
                coalesce(prev);
                return;
            }
            eraseRange(page, 1);
            auto it = runs_.emplace(page, one).first;
            present_ += 1;
            coalesce(it);
            return;
        }
    }
    auto it = runs_.emplace_hint(next, page, one);
    present_ += 1;
    coalesce(it);
}

void
PageTable::installRange(PageIndex start, std::size_t npages, FrameId frame0,
                        bool writable, bool cow)
{
    if (npages == 0)
        return;
    invalidateCache();
    auto it = runs_.upper_bound(start);
    if (it != runs_.begin()) {
        auto prev = std::prev(it);
        if (prev->first + prev->second.npages > start)
            sim::panic("PageTable::installRange: overlap at page %llu",
                       static_cast<unsigned long long>(start));
    }
    if (it != runs_.end() && it->first < start + npages)
        sim::panic("PageTable::installRange: overlap at page %llu",
                   static_cast<unsigned long long>(it->first));
    auto ins = runs_.emplace_hint(it, start,
                                  Run{npages, frame0, writable, cow});
    present_ += npages;
    coalesce(ins);
}

void
PageTable::installStrided(PageIndex start, std::size_t count,
                          std::size_t stride, FrameId frame0, bool writable,
                          bool cow)
{
    if (count == 0)
        return;
    if (stride == 1) {
        installRange(start, count, frame0, writable, cow);
        return;
    }
    invalidateCache();
    auto next = runs_.upper_bound(start);
    for (std::size_t k = 0; k < count; ++k) {
        const PageIndex page = start + k * stride;
        while (next != runs_.end() && next->first <= page)
            ++next;
        if (next != runs_.begin()) {
            const auto prev = std::prev(next);
            if (prev->first + prev->second.npages > page)
                sim::panic("PageTable::installStrided: page %llu present",
                           static_cast<unsigned long long>(page));
        }
        const auto it = coalesce(runs_.emplace_hint(
            next, page, Run{1, frame0 + k, writable, cow}));
        next = std::next(it);
    }
    present_ += count;
}

void
PageTable::Walk::seek(const PageTable &table, PageIndex page)
{
    end_ = table.runs_.end();
    it_ = table.runs_.upper_bound(page);
    if (it_ != table.runs_.begin()) {
        const auto prev = std::prev(it_);
        if (prev->first + prev->second.npages > page)
            it_ = prev;
    }
}

void
PageTable::eraseRange(PageIndex start, std::size_t npages)
{
    if (npages == 0)
        return;
    invalidateCache();
    const PageIndex end = start + npages;
    splitAt(start);
    splitAt(end);
    auto it = runs_.lower_bound(start);
    while (it != runs_.end() && it->first < end) {
        present_ -= it->second.npages;
        it = runs_.erase(it);
    }
}

void
PageTable::markCowRange(PageIndex start, std::size_t npages)
{
    if (npages == 0)
        return;
    invalidateCache();
    const PageIndex end = start + npages;
    splitAt(start);
    splitAt(end);
    auto it = runs_.lower_bound(start);
    while (it != runs_.end() && it->first < end) {
        if (it->second.writable) {
            it->second.cow = true;
            it->second.writable = false;
            it = coalesce(it);
        }
        ++it;
    }
}

bool
PageTable::setFlags(PageIndex page, bool writable, bool cow)
{
    if (findRun(page) == runs_.end())
        return false;
    setFlagsRange(page, 1, writable, cow);
    return true;
}

void
PageTable::setFlagsRange(PageIndex start, std::size_t npages, bool writable,
                         bool cow)
{
    if (npages == 0)
        return;
    invalidateCache();
    const PageIndex end = start + npages;
    splitAt(start);
    splitAt(end);
    auto it = runs_.lower_bound(start);
    PageIndex covered = start;
    while (it != runs_.end() && it->first < end) {
        if (it->first != covered)
            sim::panic("PageTable::setFlagsRange: hole at page %llu",
                       static_cast<unsigned long long>(covered));
        covered = it->first + it->second.npages;
        it->second.writable = writable;
        it->second.cow = cow;
        ++it;
    }
    if (covered < end)
        sim::panic("PageTable::setFlagsRange: hole at page %llu",
                   static_cast<unsigned long long>(covered));
    // Re-coalesce the affected region including both boundary neighbors.
    it = runs_.lower_bound(start);
    if (it != runs_.begin())
        --it;
    while (it != runs_.end() && it->first <= end) {
        it = coalesce(it);
        ++it;
    }
}

} // namespace catalyzer::mem
