/**
 * @file
 * Base-EPT: the read-only memory mapping shared by all sandboxes running
 * the same function (overlay memory, paper Sec. 3.1).
 */

#ifndef CATALYZER_MEM_BASE_MAPPING_H
#define CATALYZER_MEM_BASE_MAPPING_H

#include <string>

#include "mem/backing_file.h"
#include "mem/page_table.h"
#include "sim/context.h"

namespace catalyzer::mem {

/**
 * The shared, read-only lower layer of overlay memory.
 *
 * A BaseMapping covers a page range of a func-image file. It is populated
 * on demand: the first sandbox to touch a page pays the file fault; every
 * sandbox attached afterwards reads the same frame through the merged
 * EPT. Writes never reach the base — they COW into the sandbox's
 * Private-EPT (see AddressSpace).
 */
class BaseMapping
{
  public:
    /**
     * @param store      Machine-wide frame store.
     * @param file       Backing func-image.
     * @param file_start First file page covered.
     * @param npages     Extent in pages.
     * @param name       Diagnostic label.
     */
    BaseMapping(FrameStore &store, BackingFile &file, PageIndex file_start,
                std::size_t npages, std::string name);
    ~BaseMapping();

    BaseMapping(const BaseMapping &) = delete;
    BaseMapping &operator=(const BaseMapping &) = delete;

    /**
     * Look up region-relative @p page; returns true and fills @p out
     * (when non-null) if resident.
     */
    bool
    lookup(PageIndex page, Pte *out = nullptr) const
    {
        return table_.lookup(page, out);
    }

    /**
     * Demand-populate region-relative @p page from the backing file,
     * charging the file-fault cost. Idempotent.
     */
    FrameId populate(sim::SimContext &ctx, PageIndex page, bool cold);

    /**
     * Demand-populate every non-resident page in the region-relative
     * extent [start, start+npages): one aggregated file-fault charge
     * for the missing pages, page-cache fills in ascending page order
     * (identical costs, counters and RNG draws to per-page populate
     * calls), and run-batched PTE installs.
     */
    void populateRange(sim::SimContext &ctx, PageIndex start,
                       std::size_t npages, bool cold);

    /** Eagerly populate the full extent (used by eager-restore baselines). */
    void populateAll(sim::SimContext &ctx, bool cold);

    /**
     * Walk region-relative [start, start+npages) split into maximal
     * resident/missing segments: fn(rel_start, seg_npages, resident).
     */
    template <typename Fn>
    void
    forEachSegmentIn(PageIndex start, std::size_t npages, Fn &&fn) const
    {
        table_.forEachSegmentIn(
            start, npages,
            [&fn](PageIndex s, std::size_t m, const PageTable::Run *run) {
                fn(s, m, run != nullptr);
            });
    }

    /** Outcome of one prefetch fill. */
    enum class PrefetchFill
    {
        AlreadyResident, ///< nothing to do
        FromPageCache,   ///< installed, page was in the file's cache
        FromStorage,     ///< installed, page needed a storage read
    };

    /**
     * Populate region-relative @p page for a batched prefetch read.
     * Unlike populate(), no per-page fault latency is charged — the
     * prefetcher charges the whole batch as one sequential SSD read —
     * and the outcome tells it which pages actually hit storage.
     */
    PrefetchFill populatePrefetched(sim::SimContext &ctx, PageIndex page);

    /** A sandbox attached to / detached from this base. */
    void attach() { ++attach_count_; }
    void detach();

    std::size_t attachCount() const { return attach_count_; }
    std::size_t npages() const { return npages_; }
    std::size_t residentPages() const { return table_.presentPages(); }
    /** The Base-EPT itself (region-relative pages). */
    const PageTable &table() const { return table_; }
    std::size_t residentBytes() const
    {
        return bytesForPages(residentPages());
    }

  private:
    FrameStore &store_;
    BackingFile &file_;
    PageIndex file_start_;
    std::size_t npages_;
    std::string name_;
    PageTable table_;
    std::size_t attach_count_ = 0;
};

} // namespace catalyzer::mem

#endif // CATALYZER_MEM_BASE_MAPPING_H
