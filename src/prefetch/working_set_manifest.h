/**
 * @file
 * Versioned working-set manifest for on-demand restore (REAP-style).
 *
 * On-demand restore (overlay memory) defers page loading to first
 * access, which moves cost from boot to the handler's first request.
 * The REAP line of work shows that the page-fault trace of a restore is
 * small and highly deterministic: recording it once and eagerly
 * prefetching that working set on later boots recovers most of the
 * deferred cost. A WorkingSetManifest accumulates the fault traces of
 * the first K restores of a function and merges them into a stable
 * working set — the image pages present in at least a configurable
 * fraction of the traces — that the Prefetcher loads in large batched
 * reads before the first request.
 *
 * The manifest is bound to the generation of the func-image it was
 * recorded against; when the image is rebuilt (user-guided warming, a
 * corruption repair) the manifest is stale and restore falls back to
 * plain demand paging while a fresh one is recorded. It lives in the
 * function's sandbox::FunctionArtifacts::workingSet on the machine that
 * recorded it; another machine sees it only as a remote-fork borrower,
 * which receives the lender's manifest by pointer
 * (core::RemoteForkSource::manifest) to pull the working set in batches.
 */

#ifndef CATALYZER_PREFETCH_WORKING_SET_MANIFEST_H
#define CATALYZER_PREFETCH_WORKING_SET_MANIFEST_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "mem/types.h"

namespace catalyzer::prefetch {

/** Merged page-fault traces of a function's restore window. */
class WorkingSetManifest
{
  public:
    /**
     * @param function_name    Function the traces belong to.
     * @param image_generation Generation of the func-image the traces
     *                         were recorded against (FuncImage::generation).
     * @param max_traces       Merge window K: recording stops (the
     *                         manifest freezes) after this many traces.
     * @param min_fraction     A page enters the stable set when it is
     *                         present in at least this fraction of the
     *                         merged traces.
     */
    WorkingSetManifest(std::string function_name,
                       std::uint64_t image_generation,
                       std::size_t max_traces, double min_fraction);

    std::uint64_t imageGeneration() const { return image_generation_; }

    /** Traces merged so far. */
    std::size_t traceCount() const { return traces_; }

    /** Distinct image pages seen across all traces. */
    std::size_t pageUniverse() const { return pages_.size(); }

    /** True once K traces are merged; further addTrace() calls no-op. */
    bool frozen() const { return traces_ >= max_traces_; }

    /** True once at least one trace is merged (stableSet() is usable). */
    bool usable() const { return traces_ > 0; }

    /** Does this manifest describe @p image_generation? */
    bool matches(std::uint64_t image_generation) const
    {
        return image_generation_ == image_generation;
    }

    /**
     * Merge one restore-to-first-response fault trace (image-relative
     * page indices in first-access order; duplicates are tolerated).
     * Ignored once frozen.
     */
    void addTrace(const std::vector<mem::PageIndex> &ordered_pages);

    /**
     * The stable working set: pages present in at least
     * ceil(minFraction * traceCount) traces, in first-ever-seen order
     * (so batched reads follow the access order of the recording).
     */
    std::vector<mem::PageIndex> stableSet() const;

    /** True when a trace was merged since the last markPublished(). */
    bool dirty() const { return dirty_; }
    void markPublished() { dirty_ = false; }

  private:
    struct PageStat
    {
        std::size_t hits = 0;       ///< traces containing the page
        std::size_t firstSeen = 0;  ///< global first-seen sequence number
    };

    std::string function_name_;
    std::uint64_t image_generation_;
    std::size_t max_traces_;
    double min_fraction_;
    std::size_t traces_ = 0;
    std::size_t next_seen_ = 0;
    bool dirty_ = false;
    std::map<mem::PageIndex, PageStat> pages_;
};

} // namespace catalyzer::prefetch

#endif // CATALYZER_PREFETCH_WORKING_SET_MANIFEST_H
