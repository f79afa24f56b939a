#include "guest/go_runtime.h"

#include "sim/logging.h"
#include "sim/metric_catalog.h"

namespace catalyzer::guest {

GoRuntimeModel::GoRuntimeModel(sim::SimContext &ctx) : ctx_(ctx) {}

void
GoRuntimeModel::start(int runtime_threads, int scheduling_threads)
{
    if (started_)
        sim::panic("GoRuntimeModel::start: already started");
    if (runtime_threads < 0 || scheduling_threads < 1)
        sim::panic("GoRuntimeModel::start: bad census (%d, %d)",
                   runtime_threads, scheduling_threads);
    started_ = true;
    census_.runtime = runtime_threads;
    census_.scheduling = scheduling_threads;
    census_.blocking = 0;
    const auto &costs = ctx_.costs();
    ctx_.chargeCounted(metrics::kGuestGoRuntimeStarts, costs.goRuntimeStart);
    ctx_.charge(costs.threadCreate *
                static_cast<std::int64_t>(census_.total()));
}

void
GoRuntimeModel::addBlockingThread()
{
    if (transient_)
        sim::panic("GoRuntimeModel: blocking syscall while transient");
    ++census_.blocking;
    ctx_.chargeCounted(metrics::kGuestBlockingThreads,
                       ctx_.costs().threadCreate);
}

void
GoRuntimeModel::enterTransientSingleThread()
{
    if (!started_)
        sim::panic("GoRuntimeModel: transient before start");
    if (transient_)
        sim::panic("GoRuntimeModel: already transient");
    const auto &costs = ctx_.costs();
    saved_ = census_;

    // Runtime threads save their contexts and terminate; scheduling
    // threads merge into m0; these merges are sequentialized by the
    // runtime's STW-style handshake.
    const int merging = (census_.runtime) +
                        (census_.scheduling - 1); // m0 stays
    ctx_.charge(costs.threadMerge * static_cast<std::int64_t>(merging));

    // Blocking threads poll an added time-out and exit at the next
    // expiry; they drain concurrently, so one time-out period covers all.
    if (census_.blocking > 0) {
        ctx_.charge(costs.blockingThreadTimeout);
        ctx_.charge(costs.threadMerge *
                    static_cast<std::int64_t>(census_.blocking));
    }
    ctx_.stats().incr(metrics::kGuestTransientEntries);

    census_ = ThreadCensus{0, 1, 0}; // only m0
    transient_ = true;
}

void
GoRuntimeModel::expandFromTransient()
{
    if (!transient_)
        sim::panic("GoRuntimeModel: expand without transient state");
    const auto &costs = ctx_.costs();
    const int recreate = saved_.total() - 1; // m0 already exists
    ctx_.charge(costs.threadExpand * static_cast<std::int64_t>(recreate));
    ctx_.stats().incr(metrics::kGuestTransientExpands);
    census_ = saved_;
    transient_ = false;
}

void
GoRuntimeModel::adoptTransientState(const GoRuntimeModel &tmpl)
{
    if (!tmpl.transient_)
        sim::panic("GoRuntimeModel::adoptTransientState: template not "
                   "transient");
    started_ = true;
    transient_ = true;
    saved_ = tmpl.saved_;
    census_ = ThreadCensus{0, 1, 0};
}

int
GoRuntimeModel::totalThreads() const
{
    return started_ ? census_.total() : 0;
}

} // namespace catalyzer::guest
