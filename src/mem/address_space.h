/**
 * @file
 * Per-sandbox address space: VMAs plus the Private-EPT, optionally layered
 * over a shared Base-EPT (overlay memory).
 */

#ifndef CATALYZER_MEM_ADDRESS_SPACE_H
#define CATALYZER_MEM_ADDRESS_SPACE_H

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "mem/backing_file.h"
#include "mem/base_mapping.h"
#include "mem/frame_store.h"
#include "mem/page_table.h"
#include "sim/context.h"

namespace catalyzer::mem {

/** Mapping flavor of one VMA. */
enum class MapKind
{
    Anon,        ///< demand-zero anonymous memory
    FilePrivate, ///< MAP_PRIVATE file mapping (COW on write)
};

/** What a touch() resolved to; used by tests and stats. */
enum class FaultResult
{
    None,      ///< already mapped with sufficient rights
    MinorAnon, ///< demand-zero fill
    MinorFile, ///< file-backed fill from page cache
    Cow,       ///< copy-on-write duplication
    CowReuse,  ///< sole-owner COW resolved by remap (no copy)
    BaseHit,   ///< satisfied read-only by the shared Base-EPT
    BaseFill,  ///< Base-EPT populated from the func-image, then read
    BaseCow,   ///< write to a base page copied into the Private-EPT
};

/** Pages per FaultResult of one batched touch. */
struct FaultTally
{
    /** Indexed by FaultResult, None through BaseCow. */
    std::array<std::size_t, 8> pages{};

    std::size_t &
    operator[](FaultResult result)
    {
        return pages[static_cast<std::size_t>(result)];
    }

    bool operator==(const FaultTally &) const = default;
};

/**
 * Lightweight observer of resolved page faults (everything touch()
 * resolves except FaultResult::None). The working-set recorder in
 * src/prefetch/ implements this to capture the pages an instance
 * faults between restore and its first response; the hook costs one
 * pointer test when nobody is listening.
 */
class FaultObserver
{
  public:
    virtual ~FaultObserver() = default;

    /**
     * An extent of @p npages identically resolved faults starting at
     * @p start, in ascending page order. A single-page touch() reports
     * a one-page extent.
     */
    virtual void onFaultRange(PageIndex start, std::size_t npages,
                              bool write, FaultResult result) = 0;
};

/** One virtual memory area. */
struct Vma
{
    PageIndex start = 0;
    std::size_t npages = 0;
    MapKind kind = MapKind::Anon;
    bool writable = true;
    BackingFile *file = nullptr;
    PageIndex fileStart = 0;
    std::string name;

    bool
    contains(PageIndex page) const
    {
        return page >= start && page < start + npages;
    }
};

/**
 * A sandbox's guest-physical address space.
 *
 * Owns the Private-EPT; may be attached to a shared BaseMapping
 * (Base-EPT). All page faults — demand fill, COW, base fill — are
 * resolved here and charged to the SimContext, so startup and execution
 * latencies emerge from real fault counts.
 *
 * Range accesses resolve whole extents against one VMA per pass: bulk
 * PTE installs, one aggregated charge per fault class (N x cost in a
 * single chargeCounted, which is bit-identical to N unit charges), and
 * range observer callbacks. Per-page RNG draws (cold page-cache
 * misses) are still taken in ascending page order, so every simulated
 * latency, counter, and random decision matches the per-page loop this
 * replaced.
 */
class AddressSpace
{
  public:
    AddressSpace(sim::SimContext &ctx, FrameStore &store, std::string name);
    ~AddressSpace();

    AddressSpace(const AddressSpace &) = delete;
    AddressSpace &operator=(const AddressSpace &) = delete;

    /** Map anonymous memory; returns the start page. */
    PageIndex mapAnon(std::size_t npages, bool writable, std::string name);

    /** Map a file range; returns the start page. */
    PageIndex mapFile(BackingFile &file, PageIndex file_start,
                      std::size_t npages, MapKind kind, bool writable,
                      std::string name);

    /**
     * Attach a shared Base-EPT at a fresh virtual range (share-mapping
     * operation of overlay memory). Returns the VA start page.
     */
    PageIndex attachBase(std::shared_ptr<BaseMapping> base);

    /** Remove one VMA (partial unmap is not modelled). */
    void unmap(PageIndex start);

    /**
     * Access one page. Resolves any fault, charges costs, and reports
     * what happened. @p cold marks first-boot accesses whose page-cache
     * fills may hit storage.
     */
    FaultResult touch(PageIndex page, bool write, bool cold = false);

    /** Touch a contiguous range; returns the number of faults taken. */
    std::size_t touchRange(PageIndex start, std::size_t npages, bool write,
                           bool cold = false);

    /**
     * Touch @p count pages start, start+stride, ... in ascending order;
     * the first @p writes of them are writes. Observationally the
     * per-page touch() loop (clock, counters, frame ids, refcounts, run
     * layout), but one forward walk over the Private-EPT and Base-EPT
     * runs serves it: a page that resolves to None or BaseHit costs
     * only the walk, and BaseCow writes are charged, allocated and
     * installed as one batch. Every other outcome takes the per-page
     * path. With a fault observer installed it is the per-page loop,
     * so the observer sees the same callbacks in the same order.
     */
    FaultTally touchStrided(PageIndex start, std::size_t count,
                            std::size_t stride, std::size_t writes);

    /**
     * sfork memory half: clone this space copy-on-write. Present pages
     * of every VMA become shared-COW in both parent and child (file
     * mappings are all MAP_PRIVATE; the paper's MAP_SHARED CoW flag of
     * Sec. 4 is not modelled). Charges per-VMA and per-PTE-batch costs
     * to the context.
     */
    std::unique_ptr<AddressSpace> forkCow(std::string child_name);

    /** Resident set size: private pages plus shared base pages. */
    std::size_t rssPages() const;
    std::size_t rssBytes() const { return bytesForPages(rssPages()); }

    /**
     * Proportional set size in bytes: private frames divided by their
     * sharer count plus the base divided by its attach count — the same
     * accounting as Linux smaps (Fig. 14).
     */
    double pssBytes() const;

    /** Pages present in the Private-EPT only. */
    std::size_t privatePages() const { return table_.presentPages(); }

    /** The Private-EPT (run-layout diagnostics). */
    const PageTable &privateTable() const { return table_; }

    const std::shared_ptr<BaseMapping> &base() const { return base_; }
    const std::string &name() const { return name_; }

    /**
     * Install (or clear, with nullptr) the fault observer. At most one
     * observer is supported; it must outlive the space or be cleared
     * before the space is destroyed. Not inherited across forkCow().
     */
    void setFaultObserver(FaultObserver *observer) { observer_ = observer; }

  private:
    const Vma *findVma(PageIndex page) const;
    FaultResult resolveTouch(PageIndex page, bool write, bool cold);
    FaultResult resolveBaseAccess(PageIndex page, bool write, bool cold);
    void installCowCopy(PageIndex page, FrameId src_frame);

    /** Copy @p count strided base pages into the Private-EPT at once. */
    void installBaseCows(PageIndex start, std::size_t count,
                         std::size_t stride);

    /** Emit a range observer callback for non-None results. */
    void notifyRange(PageIndex start, std::size_t npages, bool write,
                     FaultResult result);

    /** Batched resolution of [start, start+npages) inside one VMA. */
    std::size_t touchVmaRange(const Vma &vma, PageIndex start,
                              std::size_t npages, bool write, bool cold);

    /** Batched resolution of a range inside the base window. */
    std::size_t touchBaseRange(PageIndex start, std::size_t npages,
                               bool write, bool cold);

    /** COW-resolve a fully present extent (write access). */
    std::size_t resolvePresentRange(PageIndex start, std::size_t npages,
                                    FrameId frame0, bool writable, bool cow,
                                    bool write);

    /** Demand-fault a fully absent extent against @p vma. */
    std::size_t faultVmaGap(const Vma &vma, PageIndex start,
                            std::size_t npages, bool write, bool cold);

    /** Ref+install file-cache frames read-only and pending-COW,
     *  batching contiguous extents. */
    void installFileFrames(PageIndex start,
                           const std::vector<FrameId> &frames);

    sim::SimContext &ctx_;
    FrameStore &store_;
    std::string name_;
    std::vector<Vma> vmas_; // sorted by start (mapped at ascending VAs)
    PageTable table_;
    std::shared_ptr<BaseMapping> base_;
    FaultObserver *observer_ = nullptr;
    PageIndex base_va_start_ = 0;
    PageIndex next_va_ = 0x1000; // leave page 0 unmapped
    /** Last findVma hit (index into vmas_); npos when invalid. */
    mutable std::size_t vma_cache_ = static_cast<std::size_t>(-1);
};

} // namespace catalyzer::mem

#endif // CATALYZER_MEM_ADDRESS_SPACE_H
