/**
 * @file
 * Sparse page table: the per-sandbox Private-EPT and the shared Base-EPT
 * are both instances of this structure.
 *
 * Entries are stored as *runs*: maximal extents of contiguous pages
 * mapped to contiguous frames with uniform permission bits. Boot paths
 * install and tear down memory in large extents (a heap fill, an sfork,
 * an unmap), so the run map stays tiny — a few entries for megabytes of
 * mappings — and every range operation (installRange, eraseRange,
 * markCowRange, in-order iteration) costs O(runs touched) instead of a
 * hash probe per page. Single-page faults split runs as needed and
 * re-coalesce with their neighbors, so scattered access degrades
 * gracefully toward the old per-page behavior without ever changing
 * what is mapped.
 */

#ifndef CATALYZER_MEM_PAGE_TABLE_H
#define CATALYZER_MEM_PAGE_TABLE_H

#include <cstddef>
#include <map>

#include "mem/types.h"

namespace catalyzer::mem {

/** One page-table entry (a value snapshot, not a stable reference). */
struct Pte
{
    FrameId frame = kInvalidFrame;
    /** Writable in hardware; false for read-only and pending-COW pages. */
    bool writable = false;
    /** Copy-on-write: a write fault must copy before making writable. */
    bool cow = false;
};

/**
 * Ordered sparse map from virtual page number to PTE, run-compressed.
 * Only present entries are stored; absent pages fault to the owning
 * mapping's policy.
 */
class PageTable
{
  public:
    /** One maximal extent of present pages. Page start+k maps frame0+k. */
    struct Run
    {
        std::size_t npages = 0;
        FrameId frame0 = kInvalidFrame;
        bool writable = false;
        bool cow = false;
    };

    /**
     * Forward-only probe of an ascending page stream: one seek, then
     * each probe steps past the runs that end before it. It holds an
     * iterator into the table, so any mutation needs a new seek().
     */
    class Walk
    {
      public:
        /** Position at the first run that ends after @p page. */
        void seek(const PageTable &table, PageIndex page);

        /**
         * The run covering @p page, or nullptr when it is absent.
         * @p page must not lie below the previous probe or seek.
         */
        const Run *
        find(PageIndex page)
        {
            while (it_ != end_ && it_->first + it_->second.npages <= page)
                ++it_;
            return it_ != end_ && it_->first <= page ? &it_->second
                                                     : nullptr;
        }

      private:
        std::map<PageIndex, Run>::const_iterator it_;
        std::map<PageIndex, Run>::const_iterator end_;
    };

    /**
     * Look up @p page. Returns true and fills @p out (when non-null)
     * with a snapshot of the entry if present. The hit/miss caches
     * resolve streaming lookups inline, without a tree walk, and the
     * probe cursor steps an ascending stream past them.
     */
    bool
    lookup(PageIndex page, Pte *out = nullptr) const
    {
        if (cache_run_.npages != 0 && page >= cache_start_ &&
            page - cache_start_ < cache_run_.npages) {
            if (out != nullptr)
                *out = Pte{cache_run_.frame0 + (page - cache_start_),
                           cache_run_.writable, cache_run_.cow};
            return true;
        }
        if (miss_valid_ && page >= miss_lo_ && page < miss_hi_)
            return false;
        return lookupSlow(page, out);
    }

    /** Install (or replace) the entry for @p page. */
    void install(PageIndex page, Pte pte);

    /**
     * Install @p npages entries mapping contiguous frames starting at
     * @p frame0. The range must not overlap present entries.
     */
    void installRange(PageIndex start, std::size_t npages, FrameId frame0,
                      bool writable, bool cow);

    /**
     * Install @p count single pages start, start+stride, ... mapping
     * frames frame0, frame0+1, ...: the run layout count ascending
     * install() calls would leave, with one tree search for the whole
     * batch. Every page must be absent.
     */
    void installStrided(PageIndex start, std::size_t count,
                        std::size_t stride, FrameId frame0, bool writable,
                        bool cow);

    /** Remove all present entries in [start, start+npages). */
    void eraseRange(PageIndex start, std::size_t npages);

    /**
     * Downgrade present entries in [start, start+npages) for COW
     * sharing: writable pages become read-only pending-COW, read-only
     * COW pages stay COW, plain read-only pages are untouched — the
     * per-page transform of fork.
     */
    void markCowRange(PageIndex start, std::size_t npages);

    /**
     * Set the permission bits of one present page (COW resolution).
     * Returns false when the page is not present.
     */
    bool setFlags(PageIndex page, bool writable, bool cow);

    /** Set the permission bits of all pages in a fully present range. */
    void setFlagsRange(PageIndex start, std::size_t npages, bool writable,
                       bool cow);

    /** Number of present pages. */
    std::size_t presentPages() const { return present_; }

    /** Number of stored runs (fragmentation diagnostic). */
    std::size_t runCount() const { return runs_.size(); }

    /** In-order iteration over runs: fn(PageIndex start, const Run &). */
    template <typename Fn>
    void
    forEachRun(Fn &&fn) const
    {
        for (const auto &[start, run] : runs_)
            fn(start, run);
    }

    /** In-order iteration over entries: fn(PageIndex, Pte). */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const auto &[start, run] : runs_) {
            for (std::size_t k = 0; k < run.npages; ++k)
                fn(start + k,
                   Pte{run.frame0 + k, run.writable, run.cow});
        }
    }

    /**
     * Walk [start, start+npages) in ascending order, split into
     * maximal segments that are either fully present (one clipped run)
     * or fully absent: fn(seg_start, seg_npages, const Run *clipped)
     * with clipped == nullptr for absent segments; for present
     * segments clipped->frame0 is the frame of seg_start.
     */
    template <typename Fn>
    void
    forEachSegmentIn(PageIndex start, std::size_t npages, Fn &&fn) const
    {
        const PageIndex end = start + npages;
        PageIndex p = start;
        auto it = runs_.upper_bound(start);
        if (it != runs_.begin()) {
            auto prev = std::prev(it);
            if (prev->first + prev->second.npages > start)
                it = prev;
        }
        while (p < end) {
            if (it == runs_.end() || it->first >= end) {
                fn(p, static_cast<std::size_t>(end - p), nullptr);
                return;
            }
            if (it->first > p) {
                fn(p, static_cast<std::size_t>(it->first - p), nullptr);
                p = it->first;
            }
            const PageIndex run_end = it->first + it->second.npages;
            const PageIndex seg_end = run_end < end ? run_end : end;
            Run clipped = it->second;
            clipped.frame0 += p - it->first;
            clipped.npages = static_cast<std::size_t>(seg_end - p);
            fn(p, clipped.npages, &clipped);
            p = seg_end;
            ++it;
        }
    }

  private:
    using RunMap = std::map<PageIndex, Run>;

    /** Out-of-line tail of lookup(); refreshes caches and cursor. */
    bool lookupSlow(PageIndex page, Pte *out) const;

    /**
     * runs_.upper_bound(@p page): stepped forward from the cursor when
     * @p page lies a few runs past it, a walk from the root otherwise.
     */
    RunMap::const_iterator upperBound(PageIndex page) const;

    /** Iterator to the run containing @p page, or end(). */
    RunMap::iterator findRun(PageIndex page);

    /**
     * Split the run containing @p at so that a run boundary falls at
     * @p at; no-op if @p at is already a boundary or not covered.
     */
    void splitAt(PageIndex at);

    /** Merge @p it with its neighbors when contiguous and flag-equal. */
    RunMap::iterator coalesce(RunMap::iterator it);

    /** Drop the lookup caches and the cursor (any mutation). */
    void
    invalidateCache() const
    {
        cache_run_.npages = 0;
        miss_valid_ = false;
        cursor_.valid = false;
    }

    /**
     * Probe cursor: next == runs_.upper_bound(page) as of the last slow
     * lookup. It holds an iterator into runs_, so a copied or moved
     * table starts without one.
     */
    struct Cursor
    {
        RunMap::const_iterator next;
        PageIndex page = 0;
        bool valid = false;

        Cursor() = default;
        Cursor(const Cursor &) {}
        Cursor &
        operator=(const Cursor &)
        {
            valid = false;
            return *this;
        }
    };

    RunMap runs_;
    std::size_t present_ = 0;
    /**
     * Last-hit lookup cache: a value snapshot of the most recently hit
     * run (npages == 0 when invalid). Touch loops stream through the
     * same few runs, so most lookups resolve without a tree walk.
     */
    mutable PageIndex cache_start_ = 0;
    mutable Run cache_run_{};
    /**
     * Last-miss cache: the maximal absent gap [miss_lo_, miss_hi_)
     * around the last missed page. Demand-fault streams probe long
     * absent stretches; those misses resolve without a tree walk too.
     */
    mutable PageIndex miss_lo_ = 0;
    mutable PageIndex miss_hi_ = 0;
    mutable bool miss_valid_ = false;
    mutable Cursor cursor_;
};

} // namespace catalyzer::mem

#endif // CATALYZER_MEM_PAGE_TABLE_H
