#include "net/remote_pager.h"

#include <algorithm>

#include "sim/clock.h"
#include "sim/metric_catalog.h"

namespace catalyzer::net {

RemotePager::RemotePager(sim::SimContext &ctx, Fabric &fabric,
                         NodeId self, NodeId peer,
                         mem::PageIndex window_start,
                         std::size_t window_pages,
                         faults::FaultInjector *injector,
                         std::size_t batch_pages,
                         trace::TraceContext borrow_trace,
                         trace::TraceContext lend_trace)
    : ctx_(ctx), fabric_(fabric), self_(self), peer_(peer),
      source_(peer), borrow_trace_(borrow_trace),
      lend_trace_(lend_trace), window_start_(window_start),
      window_pages_(window_pages), injector_(injector),
      batch_pages_(std::max<std::size_t>(batch_pages, 1)),
      lease_(fabric, peer)
{
}

void
RemotePager::onFaultRange(mem::PageIndex start, std::size_t npages,
                          bool write, mem::FaultResult result)
{
    (void)write;
    if (result != mem::FaultResult::BaseFill)
        return;
    const mem::PageIndex lo = std::max(start, window_start_);
    const mem::PageIndex hi = std::min(
        start + npages, window_start_ + window_pages_);
    if (hi > lo)
        pull(hi - lo);
}

void
RemotePager::openBatch()
{
    const auto &costs = ctx_.costs();
    sim::Stopwatch watch(ctx_.clock());
    if (injector_ != nullptr) {
        if (source_ != kOriginStorage &&
            injector_->shouldFail(faults::FaultSite::RemotePeerDeath,
                                  ctx_.stats())) {
            // The lender died mid-pull: this request times out, and
            // every later pull streams from origin storage instead of
            // failing the running instance.
            ctx_.charge(faults::kAttemptTimeout);
            ctx_.stats().incr(metrics::kRemotePeerLost);
            source_ = kOriginStorage;
        }
        if (injector_->shouldFail(faults::FaultSite::NetLink,
                                  ctx_.stats())) {
            // One dropped request; the retry goes through.
            ctx_.charge(faults::kAttemptTimeout);
            ctx_.stats().incr(metrics::kNetLinkRetries);
        }
    }
    ctx_.charge(fabric_.rtt(self_, source_, costs) +
                costs.netPagePullBatchSetup);
    ctx_.stats().incr(metrics::kRemotePullBatches);
    ++batches_;
    batch_left_ = batch_pages_;
    // Stitch the pull into the boot's distributed trace: a borrower
    // span covering the request setup, plus a marker in the lender's
    // tracer while it is still the one serving. Both carry the trace id
    // captured when the instance was borrowed.
    if (borrow_trace_.enabled()) {
        const trace::SpanId id = borrow_trace_.completedSpan(
            "remote-pull-batch", watch.elapsed());
        if (source_ == kOriginStorage)
            borrow_trace_.tracer()->attribute(id, "source", "origin");
        else
            borrow_trace_.tracer()->attribute(
                id, "source", static_cast<std::int64_t>(source_));
    }
    if (source_ == peer_ && lend_trace_.enabled()) {
        const trace::SpanId id = lend_trace_.completedSpan(
            "serve-pull-batch", sim::SimTime::zero());
        lend_trace_.tracer()->attribute(id, "borrower",
                                        static_cast<std::int64_t>(self_));
    }
}

void
RemotePager::pull(std::size_t npages)
{
    const auto &costs = ctx_.costs();
    std::size_t left = npages;
    while (left > 0) {
        if (batch_left_ == 0)
            openBatch();
        const std::size_t take = std::min(left, batch_left_);
        // The pages ride the streaming bandwidth of the current source,
        // contended by the other pull channels open on it (this pager's
        // own lease is discounted).
        ctx_.charge(fabric_.streamCost(
                        source_, mem::bytesForPages(take), costs) *
                    fabric_.contentionFactor(self_, source_,
                                             /*discount_streams=*/1));
        batch_left_ -= take;
        left -= take;
    }
    pages_pulled_ += npages;
    ctx_.stats().incr(metrics::kRemotePagePulls,
                      static_cast<std::int64_t>(npages));
}

} // namespace catalyzer::net
