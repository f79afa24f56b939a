#include "net/fabric.h"

#include <algorithm>

#include "sim/logging.h"
#include "sim/metric_catalog.h"

namespace catalyzer::net {

namespace {
/** Streaming slowdown per concurrent open stream on an endpoint. */
constexpr double kContentionPenalty = 0.5;
} // namespace

StreamLease::StreamLease(Fabric &fabric, NodeId node)
    : fabric_(fabric), node_(node)
{
    fabric_.openStream(node_);
}

StreamLease::~StreamLease()
{
    fabric_.closeStream(node_);
}

std::size_t
Fabric::rackOf(NodeId node) const
{
    if (node == kOriginStorage)
        return static_cast<std::size_t>(-1);
    const std::size_t per_rack = std::max<std::size_t>(
        config_.machinesPerRack, 1);
    return node / per_rack;
}

sim::SimTime
Fabric::rtt(NodeId a, NodeId b, const sim::CostModel &costs) const
{
    return sameRack(a, b) ? costs.netRttIntraRack : costs.netRttCrossRack;
}

sim::SimTime
Fabric::streamCost(NodeId src, std::size_t bytes,
                   const sim::CostModel &costs) const
{
    const sim::SimTime per_mib = src == kOriginStorage
        ? costs.netOriginStreamPerMiB
        : costs.netStreamPerMiB;
    return per_mib *
           (static_cast<double>(bytes) / (1024.0 * 1024.0));
}

std::size_t
Fabric::openStreams(NodeId node) const
{
    auto it = streams_.find(node);
    return it == streams_.end() ? 0 : it->second;
}

double
Fabric::contentionFactor(NodeId src, NodeId dst,
                         std::size_t discount_streams) const
{
    const std::size_t open = openStreams(src) + openStreams(dst);
    const std::size_t others =
        open > discount_streams ? open - discount_streams : 0;
    return 1.0 + kContentionPenalty * static_cast<double>(others);
}

Transfer
Fabric::transfer(sim::SimContext &ctx, NodeId src, NodeId dst,
                 std::size_t bytes, const char *what,
                 trace::TraceContext trace,
                 std::size_t discount_streams)
{
    const auto &costs = ctx.costs();
    Transfer t;
    t.src = src;
    t.dst = dst;
    t.bytes = bytes;
    t.crossRack = !sameRack(src, dst);

    if (!config_.modelTransfers) {
        // Flat-compat: the legacy per-MiB charge, bit for bit. No
        // counters and no spans either, so pre-fabric runs stay
        // byte-identical (pay-for-use, like a disabled FaultInjector).
        const auto mib = static_cast<std::int64_t>(bytes >> 20);
        t.streaming = costs.networkFetchPerMiB *
                      std::max<std::int64_t>(mib, 1);
        t.total = t.streaming;
        ctx.charge(t.total);
        return t;
    }

    t.rtt = rtt(src, dst, costs);
    t.contention = contentionFactor(src, dst, discount_streams);
    t.streaming = streamCost(src, bytes, costs) * t.contention;
    t.total = t.rtt + t.streaming;

    trace::ScopedSpan span(trace, "net-transfer");
    span.attr("what", what);
    span.attr("bytes", static_cast<std::int64_t>(bytes));
    if (src == kOriginStorage)
        span.attr("src", "origin");
    else
        span.attr("src", static_cast<std::int64_t>(src));
    span.attr("dst", static_cast<std::int64_t>(dst));
    span.attr("cross_rack", trace::boolName(t.crossRack));

    ctx.charge(t.total);
    ctx.stats().incr(metrics::kNetTransfers);
    ctx.stats().incr(metrics::kNetBytes, static_cast<std::int64_t>(bytes));
    ctx.stats().observeWindowed(metrics::kWinNetBytes, ctx.now(),
                                static_cast<double>(bytes));
    if (t.crossRack)
        ctx.stats().incr(metrics::kNetCrossRackTransfers);
    return t;
}

void
Fabric::openStream(NodeId node)
{
    ++streams_[node];
}

void
Fabric::closeStream(NodeId node)
{
    auto it = streams_.find(node);
    if (it == streams_.end() || it->second == 0)
        sim::panic("Fabric: closing a stream that was never opened");
    if (--it->second == 0)
        streams_.erase(it);
}

} // namespace catalyzer::net
