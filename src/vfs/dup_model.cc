#include "vfs/dup_model.h"

#include "sim/metric_catalog.h"

namespace catalyzer::vfs {

sim::SimTime
chargeDup(sim::SimContext &ctx, bool expanded, bool lazy)
{
    const auto &costs = ctx.costs();
    sim::SimTime t;
    if (lazy) {
        t = costs.dupFast;
        ctx.chargeCounted(metrics::kVfsLazyDups, t);
        return t;
    }
    if (!expanded) {
        t = costs.dupFast;
        ctx.chargeCounted(metrics::kVfsDups, t);
        return t;
    }
    ctx.stats().incr(metrics::kVfsFdtableExpansions);
    if (ctx.rng().chance(costs.dupExpandBurstProb)) {
        // Heavy-tailed reclaim stall: most bursts are a few ms, the
        // worst reach the 30 ms regime of Fig. 16d.
        t = sim::SimTime::milliseconds(ctx.rng().heavyTail(
            costs.dupExpandTypical.toMs(), costs.dupExpandWorst.toMs(),
            /*alpha=*/0.7));
        ctx.chargeCounted(metrics::kVfsDupBursts, t);
    } else {
        t = costs.dupExpandTypical;
        ctx.chargeCounted(metrics::kVfsDups, t);
    }
    return t;
}

} // namespace catalyzer::vfs
