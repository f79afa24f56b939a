/**
 * @file
 * Network-backed demand paging for remote-sfork (MITOSIS-style).
 *
 * A borrower machine that remote-sforked from a peer's template owns a
 * local mirror of the lender's func-image with no data in it yet. The
 * RemotePager hooks the borrower's page faults (mem::FaultObserver):
 * every Base-EPT fill inside the mirrored window also pulls the page
 * from the lender over the fabric. Pulls are batched — a new pull
 * request (one RTT + request setup) is issued every batchPages pages,
 * and each page rides the streaming bandwidth — so the cost structure
 * matches RDMA-read page fetching rather than per-page round trips.
 *
 * Fault handling degrades instead of throwing (a pull happens inside
 * invoke(), where a FaultError must never escape): when the lender dies
 * mid-pull the pager fails the batch once and reroutes every later pull
 * to origin storage; an injected link failure costs one attempt timeout
 * and the retry succeeds.
 */

#ifndef CATALYZER_NET_REMOTE_PAGER_H
#define CATALYZER_NET_REMOTE_PAGER_H

#include <memory>

#include "faults/fault_injector.h"
#include "mem/address_space.h"
#include "net/fabric.h"
#include "sim/context.h"
#include "trace/trace.h"

namespace catalyzer::net {

/** Pulls remotely-backed pages on demand for one borrowed instance. */
class RemotePager : public mem::FaultObserver
{
  public:
    /**
     * @param ctx          Borrower machine's context (charged).
     * @param fabric       The cluster fabric.
     * @param self         Borrower node.
     * @param peer         Lender node holding the template's memory.
     * @param window_start First VA page of the mirrored image window.
     * @param window_pages Window extent.
     * @param injector     Fault source; nullptr disables injection.
     * @param batch_pages  Pages per pull request.
     * @param borrow_trace Borrower-side trace context (captured at boot
     *                     time, so lifetime pulls stay tagged with the
     *                     boot's distributed trace id); disabled = no
     *                     spans.
     * @param lend_trace   Lender-side context carrying the same trace
     *                     id; each batch served while the lender is
     *                     alive drops a marker span into its tracer.
     */
    RemotePager(sim::SimContext &ctx, Fabric &fabric, NodeId self,
                NodeId peer, mem::PageIndex window_start,
                std::size_t window_pages,
                faults::FaultInjector *injector,
                std::size_t batch_pages,
                trace::TraceContext borrow_trace = {},
                trace::TraceContext lend_trace = {});

    void onFaultRange(mem::PageIndex start, std::size_t npages,
                      bool write, mem::FaultResult result) override;

    /** Current pull source (the lender, or origin after its death). */
    NodeId source() const { return source_; }

    std::uint64_t pagesPulled() const { return pages_pulled_; }
    std::uint64_t batchesIssued() const { return batches_; }

  private:
    /** Account @p npages pulled pages, opening batches as needed. */
    void pull(std::size_t npages);

    /** Start a new pull request: faults, RTT, request setup. */
    void openBatch();

    sim::SimContext &ctx_;
    Fabric &fabric_;
    NodeId self_;
    /** The original lender (source_ reroutes to origin on its death). */
    NodeId peer_;
    NodeId source_;
    trace::TraceContext borrow_trace_;
    trace::TraceContext lend_trace_;
    mem::PageIndex window_start_;
    std::size_t window_pages_;
    faults::FaultInjector *injector_;
    std::size_t batch_pages_;
    /** Pages still covered by the currently open pull request. */
    std::size_t batch_left_ = 0;
    std::uint64_t pages_pulled_ = 0;
    std::uint64_t batches_ = 0;
    /** Lender-NIC registration driving the contention model. */
    StreamLease lease_;
};

} // namespace catalyzer::net

#endif // CATALYZER_NET_REMOTE_PAGER_H
