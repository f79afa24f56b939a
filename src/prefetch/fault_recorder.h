/**
 * @file
 * FaultRecorder: captures the ordered set of func-image pages an
 * instance faults between restore and its first response.
 *
 * The recorder implements mem::FaultObserver and is attached to the
 * instance's AddressSpace by the Catalyzer restore path. It watches the
 * virtual-address window the Base-EPT (func-image) occupies and records
 * each distinct image page in first-access order. The window closes at
 * the end of the instance's first invocation ("restore to first
 * response"), when finish() either merges the trace into the function's
 * WorkingSetManifest (recording mode), grades a prefetched set against
 * what the window actually touched (audit mode), or both — a boot that
 * prefetches an unfrozen manifest keeps refining it.
 */

#ifndef CATALYZER_PREFETCH_FAULT_RECORDER_H
#define CATALYZER_PREFETCH_FAULT_RECORDER_H

#include <memory>
#include <set>
#include <vector>

#include "mem/address_space.h"
#include "prefetch/working_set_manifest.h"
#include "sim/stats.h"

namespace catalyzer::prefetch {

/** Observer of one instance's restore-to-first-response window. */
class FaultRecorder : public mem::FaultObserver
{
  public:
    /**
     * @param window_start First virtual page of the Base-EPT window.
     * @param window_pages Extent of the window (func-image pages).
     */
    FaultRecorder(mem::PageIndex window_start, std::size_t window_pages);

    /** Merge the trace into @p manifest at finish(). */
    void enableRecording(std::shared_ptr<WorkingSetManifest> manifest);

    /**
     * Grade @p prefetched_pages (image-relative) against the pages the
     * window actually accesses: demand faults avoided, wasted pages and
     * the manifest hit rate, reported into the registry at finish().
     */
    void enableAudit(std::vector<mem::PageIndex> prefetched_pages);

    /** Still observing (finish() not yet called)? */
    bool active() const { return active_; }

    /**
     * Close the window: commit the trace / audit into @p stats.
     * Idempotent; the recorder ignores faults afterwards.
     *
     * Counters written (audit mode): prefetch.demand_faults_avoided,
     * prefetch.wasted_pages, and the prefetch.manifest_hit_rate
     * histogram (ratio of accessed image pages that were prefetched).
     */
    void finish(sim::StatRegistry &stats);

    /** Distinct image pages accessed so far, in first-access order. */
    const std::vector<mem::PageIndex> &accessedInOrder() const
    {
        return order_;
    }

    // mem::FaultObserver
    void onFaultRange(mem::PageIndex start, std::size_t npages,
                      bool write, mem::FaultResult result) override;

  private:
    mem::PageIndex window_start_;
    std::size_t window_pages_;
    bool active_ = true;
    std::shared_ptr<WorkingSetManifest> manifest_;
    bool audit_ = false;
    std::vector<mem::PageIndex> prefetched_;
    std::set<mem::PageIndex> seen_;
    std::vector<mem::PageIndex> order_;
};

} // namespace catalyzer::prefetch

#endif // CATALYZER_PREFETCH_FAULT_RECORDER_H
